(** Flat integer columns backed by [Bigarray] — the storage primitive of
    sealed relations. A column is a C-layout [int] array outside the
    OCaml heap: scanning it never touches the GC, and slices of it are
    the operands of the join kernels (sorted-run intersection, range
    narrowing).

    The element accessors below are calls wherever this library is
    compiled [-opaque] (dune's dev profile), so inner loops in other
    libraries read through [Bigarray.Array1.unsafe_get], which compiles
    to a load on this element kind in every profile. The searches read
    that way inside, so each costs one call. *)

type t = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

val create : int -> t
val length : t -> int
val get : t -> int -> int
val set : t -> int -> int -> unit

val of_array : int array -> t
val to_array : t -> int array
val blit : src:t -> src_pos:int -> dst:t -> dst_pos:int -> len:int -> unit

(** [lower_bound c ~lo ~hi v] is the first index in [\[lo, hi)] holding a
    value [>= v] ([hi] when none). Requires [c] sorted on that range. *)
val lower_bound : t -> lo:int -> hi:int -> int -> int

(** First index in [\[lo, hi)] holding a value [> v]. *)
val upper_bound : t -> lo:int -> hi:int -> int -> int
