(** Counting the hyperedges of an ℓ-partite ℓ-uniform hypergraph through a
    colourful [EdgeFree] decision oracle — the engine the paper imports as
    Theorem 17 (Dell–Lapinskas–Meeks) and that Lemma 22 plugs query
    answers into.

    Two modes (see DESIGN.md substitution 1):

    - {!enumerate}/{!exact_count}: recursive splitting with the oracle; an
      exact enumeration making [O(|E| · ℓ · log max|U_i|)] oracle calls.
    - {!estimate}: the randomized (ε,δ)-approximation. Geometric
      subsampling (keep every vertex independently with probability
      [2^{-j/ℓ}], so each edge survives with probability [2^{-j}])
      locates the magnitude of [|E|]; at the located level, the few
      survivors are enumerated exactly and rescaled by [2^j]; a median
      over independent repetitions yields the confidence bound. When the
      whole hypergraph already has at most the target number of edges the
      answer returned is exact. *)

(** An edge: one local vertex id per class. *)
type edge = int array

(** [enumerate space oracle ~within ~limit] lists the edges of
    [H[within]] (default: the whole space), stopping after [limit] edges;
    the boolean is [true] when the enumeration is complete. *)
val enumerate :
  Partite.space ->
  Partite.aligned_oracle ->
  ?within:Partite.aligned ->
  ?limit:int ->
  unit ->
  edge list * bool

(** Complete enumeration count (no limit). *)
val exact_count :
  Partite.space -> Partite.aligned_oracle -> ?within:Partite.aligned -> unit -> int

type result = {
  value : float;
  exact : bool;         (** [true] when [value] is an exact count *)
  level : int;          (** subsampling level used (0 when exact) *)
  repetitions : int;    (** independent estimates the median was taken over *)
}

(** An oracle whose probes may themselves be randomized (e.g. the Lemma
    22 colourful oracle re-colours per probe). The estimator passes each
    probe the stream of the phase or trial that issues it, keeping the
    result independent of global RNG state and of the jobs count. A
    deterministic oracle ignores [rng]. *)
type seeded_oracle = rng:Random.State.t -> Partite.aligned -> bool

(** [restrict space box oracle] is the sub-hypergraph [H[box]] presented
    as a fresh space (class [i] relabelled to [0 .. |box.(i)|-1]) with a
    translating oracle. Used by box-restricted estimation and by the
    JVV-style samplers. *)
val restrict :
  Partite.space ->
  Partite.aligned ->
  seeded_oracle ->
  Partite.space * seeded_oracle

(** Median repetitions giving confidence [1 - delta] — exposed so
    callers (and their parallel engines) can size a batch up front. *)
val repetitions_for : delta:float -> int

(** Where {!estimate} draws its randomness. *)
type source =
  | Stream of Random.State.t
      (** every draw, oracle probes included, from this one stream in
          program order: the form a single JVV draw (itself one engine
          trial) and {!sample_edge} use *)
  | Engine of Ac_exec.Engine.t
      (** the exact pre-enumeration and the level-locating descent run
          sequentially on the engine's streams 0 and 1; refine round [k]
          fans its median repetitions out over the derived engine
          [split exec (2 + k)] ({!Ac_exec.Engine.run}), so the result is
          bit-identical for any jobs count *)

(** [(ε,δ)]-style estimate of [|E(H)|] (or of [|E(H[within])|]).
    [budget] governs the [Engine] form's parallel trials through
    per-chunk sub-slices. *)
val estimate :
  ?budget:Ac_runtime.Budget.t ->
  ?within:Partite.aligned ->
  source:source ->
  epsilon:float ->
  delta:float ->
  Partite.space ->
  seeded_oracle ->
  result

(** Approximately-uniform random edge — the sampling counterpart the paper
    cites from Dell–Lapinskas–Meeks (§6): recursive halving of the widest
    class, each half chosen with probability proportional to its
    (estimated) edge count; exact uniform sampling when the current box's
    edges fit the estimator's exact path. Every draw comes from [rng].
    [None] when the hypergraph is (believed) edge-free. *)
val sample_edge :
  rng:Random.State.t ->
  epsilon:float ->
  delta:float ->
  Partite.space ->
  seeded_oracle ->
  edge option
