(** Finite relations over an integer universe — a two-phase store.

    A relation starts in the {b builder} phase (a hash table of tuples;
    exactly the historical construction surface: [create], [add],
    duplicates ignored). {!seal} freezes it into the {b sealed} phase: a
    columnar representation — one lex-sorted, deduplicated
    [Bigarray]-backed {!Column.t} per attribute, per-column sorted
    dictionaries of the distinct values, and a CSR-style
    (offset-compressed) index over the first column. Sealed relations
    are immutable: {!add} raises the typed
    [Ac_runtime.Error.Sealed_mutation] instead of silently writing, and
    the join kernels ({!projection}) read the columns directly.

    Iteration order is {b canonical} (ascending lexicographic) in every
    phase, so enumeration sequences — and everything derived from them:
    fingerprints, atom orders, join candidate orders — are
    representation-independent. *)

type t

(** Sorted projection of a sealed relation (also the sealed relation
    itself, via the identity projection): [rows] lex-sorted deduplicated
    tuples as per-column arrays, plus dictionary + CSR offsets over the
    first projected column ([dict0.(k)]'s rows are
    [offsets0.(k), offsets0.(k+1))]). *)
type cols = {
  columns : Column.t array;
  rows : int;
  dict0 : Column.t;
  offsets0 : Column.t;
}

val create : arity:int -> t
val arity : t -> int

(** Builder/sealed: exact tuple count. Complement views:
    {!complement_cardinality} of the base's count. *)
val cardinality : t -> int

(** [universe_size^arity - rows], saturating at [max_int]: the size of
    the complement of a [rows]-tuple relation. *)
val complement_cardinality : universe_size:int -> arity:int -> int -> int

(** [add rel tuple] inserts [tuple]; duplicates are ignored. Raises
    [Invalid_argument] if the tuple length differs from the arity, and
    the typed [Ac_runtime.Error.Sealed_mutation] (as [Error.E]) if the
    relation is sealed. *)
val add : t -> Tuple.t -> unit

(** Freeze into the columnar phase. Idempotent, thread-safe; a no-op on
    already-sealed relations and complement views. *)
val seal : t -> unit

(** [of_sorted ~arity rows] builds a {e sealed} relation directly from
    rows that are already lex-sorted and deduplicated — the O(n) fast
    path for callers that produce canonical order themselves (the live
    main+delta merge in [Ac_live]): no builder hashtable, no re-sort.
    The array is not retained. Raises [Invalid_argument] when a row has
    the wrong length or the order is not strictly ascending. *)
val of_sorted : arity:int -> Tuple.t array -> t

(** [of_merge ~main ~inserts ~deletes ()] is the sealed relation
    [(main \ deletes) ∪ inserts], built in one linear pass that writes
    the output columns directly. [main] must be sealed; [inserts] and
    [deletes] must be lex-sorted and deduplicated, every tombstone a row
    of [main] and no insert a row of [main]. [tick] runs once per 256
    rows written. Raises [Invalid_argument] when a precondition fails —
    in particular, like {!of_sorted}, when the rows would not be strictly
    ascending. *)
val of_merge :
  ?tick:(unit -> unit) ->
  main:t ->
  inserts:Tuple.t array ->
  deletes:Tuple.t array ->
  unit ->
  t

val is_sealed : t -> bool

val mem : t -> Tuple.t -> bool

(** [mem_at r scope assignment] is [mem r] of the tuple
    [assignment.(scope.(0)), …, assignment.(scope.(arity - 1))], read in
    place: on sealed relations and complement views over them it
    allocates nothing (a builder copies the tuple out). {!mem} is its
    identity-scope case. *)
val mem_at : t -> int array -> int array -> bool

(** Ascending lexicographic order in every phase. On a complement view
    this sweeps [U^arity] lazily (never materializing), skipping base
    tuples — callers iterating complements pay the universe cost. *)
val iter : (Tuple.t -> unit) -> t -> unit

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a
val to_list : t -> Tuple.t list

val of_list : arity:int -> Tuple.t list -> t

(** [copy r] always thaws: a fresh {e builder} holding [r]'s tuples,
    whatever phase [r] is in — the only way to resume mutation after
    {!seal}. *)
val copy : t -> t

val is_empty : t -> bool

(** [complement_view ~universe_size rel] is the lazy negated relation
    [U^arity \ rel] (Definition 20) as a view: membership and iteration
    without materialization. Seals [rel] (the base must be stable). The
    complement of a complement over the same universe is the shared
    base. *)
val complement_view : universe_size:int -> t -> t

(** Enumerate [U^arity] in lexicographic order. *)
val iter_universal : universe_size:int -> arity:int -> (Tuple.t -> unit) -> unit

(** [true] for complement views. *)
val is_complement : t -> bool

(** The (sealed) base and universe of a complement view. *)
val complement_base : t -> (t * int) option

(** The sealed columnar payload; [None] for builders and complement
    views. *)
val sealed_cols : t -> cols option

(** [dict r j] — sorted distinct values of column [j]. Sealed only;
    raises [Invalid_argument] otherwise. *)
val dict : t -> int -> Column.t

(** [projection r ~positions ~equalities] — rows satisfying every
    [t.(p) = t.(q)] for [(p, q)] in [equalities], projected to
    [positions] (in the given order), lex-sorted and deduplicated. This
    is the join kernels' index: memoized on the sealed relation (thread-
    safe), so repeated prepares over a catalog-resident relation reuse
    the sort. Sealed only; raises [Invalid_argument] otherwise. The
    identity projection returns the primary columns without copying. *)
val projection : t -> positions:int array -> equalities:(int * int) array -> cols

(** Distinct universe elements appearing in any tuple component. *)
val active_domain : t -> int

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
