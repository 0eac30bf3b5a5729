(** Tuples of universe elements.

    Universe elements are represented as dense non-negative integers
    [0 .. n-1]; a tuple is an immutable-by-convention [int array]. The
    module provides the hashing/equality used by relation hash tables. *)

type t = int array

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val to_string : t -> string
val pp : Format.formatter -> t -> unit

(** Hash table keyed by tuples. *)
module Table : Hashtbl.S with type key = t

(** The table's keys in ascending {!compare} order. *)
val sorted_keys : 'a Table.t -> t array
