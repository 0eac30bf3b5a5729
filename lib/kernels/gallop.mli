(** Galloping search and leapfrog intersection over sorted column runs —
    the vectorized core of the columnar join path.

    Columns are read through the [Bigarray] primitive, which compiles
    to a load in every build profile; [Column]'s accessors are calls
    wherever the library is compiled [-opaque] (dune's dev profile).

    A {e run} is a slice [\[lo, hi)] of a sorted {!Ac_relational.Column.t}
    (duplicates allowed — a run is typically one column of a sorted
    projection restricted to the rows matching the bindings so far).
    {!intersect_into} enumerates the distinct values common to all runs
    in ascending order, handing each value the per-run sub-range holding
    it; that ascending order is what makes join enumeration order — and
    the estimates downstream of it — reproducible. *)

module Column = Ac_relational.Column

(** [lower col ~lo ~hi x] — index of the first element [>= x] in
    [\[lo, hi)], or [hi]. Exponential probe from [lo], then binary
    search: O(log d) in the distance d actually moved. *)
val lower : Column.t -> lo:int -> hi:int -> int -> int

(** First element [> x]; same contract as {!lower}. *)
val upper : Column.t -> lo:int -> hi:int -> int -> int

(** All fields are mutable so a caller can keep one cursor array per
    join level and rewrite the bounds — or repoint [col] at a reused
    scratch column — per search node instead of allocating. *)
type run = { mutable col : Column.t; mutable lo : int; mutable hi : int }

(** [intersect_into ~pos ~bounds runs f] calls [f v bounds] for every
    value [v] present in all runs, in ascending order, until [f] returns
    [false]: the scan stops there, so a caller that needs only the first
    common value (a decision probe) pays for nothing after it. [bounds]
    is a flat scratch array [\[lo0; hi0; lo1; hi1; …\]]:
    [bounds.(2i), bounds.(2i+1))] is the index range of [v] inside
    [runs.(i)]; [pos] holds the cursors. The caller owns both (lengths ≥ the number of runs and ≥
    twice that), so hot loops running one intersection per search node
    allocate nothing; both are overwritten freely, neither is read on
    entry, and [bounds] is overwritten on the next value — copy what
    must outlive the callback. [f] may recurse into further
    [intersect_into] calls over {e other} run arrays with {e different}
    scratch arrays (the nested-loop join does exactly this); [runs]
    itself is read once at entry and never mutated. No-op when [runs]
    is empty or any run is empty. One run walks its distinct values
    directly and two runs take a two-pointer loop; only three or more
    pay the leapfrog's per-value head scan. *)
val intersect_into :
  pos:int array -> bounds:int array -> run array -> (int -> int array -> bool) -> unit
