(** Sketch-based randomized approximation of #TA over a fixed tree shape —
    the engine the paper imports from Arenas–Croquevielle–Jayaram–Riveros
    (Lemma 51, [5, Corollary 4.9]), reimplemented in its natural bottom-up
    form (see DESIGN.md substitution 3).

    For every shape node [u] and automaton state [s] the algorithm keeps
    (i) an estimate of [|L(u, s)|] — the number of labelings of the
    subtree at [u] admitting a run from [s] — and (ii) a bounded sketch of
    approximately-uniform samples from [L(u, s)]. Estimates for a node are
    assembled from its children with the Karp–Luby union estimator: the
    candidate sets reachable through different transitions overlap, and
    multiplicities are resolved with automaton membership tests (cheap:
    run-state sets are memoised per shared subtree).

    The pair (estimate, sketch) also yields an approximately-uniform
    sampler of accepted labelings, used by the §6 sampling extension. *)

type config = {
  sketch_size : int;    (** samples kept per (node, state) *)
  union_rounds : int;   (** Karp–Luby rounds per union estimate *)
  rng : Random.State.t;
  budget : Ac_runtime.Budget.t;
      (** cooperative cancellation: ticked per sketch cell, per
          Karp–Luby round and per pool draw; a tripped budget aborts
          the propagation with [Budget_exceeded] *)
}

(** The fixed 48-sample sketch drawing from [Random.State.make [|seed|]]. *)
val default_config : seed:int -> ?budget:Ac_runtime.Budget.t -> unit -> config

(** Median repetitions giving confidence [1 - delta] for the sketch
    estimator ([max 3 (2⌈1.25 ln(1/δ)⌉ + 1)]): the batch
    {!estimate_median} takes the median of. *)
val repetitions_for : delta:float -> int

(** [c] and [κ_min] of {!sketch_size_for}, calibrated against exact
    counts by the (ε, δ) conformance test (DESIGN.md substitution 3). *)
val sketch_constant : float
val sketch_floor : int

(** Sketch size for accuracy [eps]: κ(ε) = [max κ_min ⌈c/ε²⌉], used for
    both {!config.sketch_size} and {!config.union_rounds}. *)
val sketch_size_for : eps:float -> int

(** Estimate of the number of labelings of [shape] accepted by the
    automaton. *)
val estimate_fixed_shape : config:config -> Tree_automaton.t -> Ltree.shape -> float

(** Median over [repetitions] independent sketch propagations, each on
    its own deterministic RNG stream, fanned out over [exec]'s domains
    ({!Ac_exec.Engine}). The automaton is shared read-only across the
    trials (each trial allocates its own run-state memo); trial [i] draws all
    randomness from stream [i] of [exec]'s seed, so the median is
    bit-identical for any jobs count. [budget] governs the whole batch
    through per-chunk sub-slices; [config]'s own [rng]/[budget] fields
    are overridden per trial (a single repetition runs on [config]
    as given). *)
val estimate_median :
  ?budget:Ac_runtime.Budget.t ->
  config:config ->
  exec:Ac_exec.Engine.t ->
  repetitions:int ->
  Tree_automaton.t ->
  Ltree.shape ->
  float

(** Approximately-uniform sample of an accepted labeling ([None] when the
    estimate is 0). *)
val sample_fixed_shape :
  config:config -> Tree_automaton.t -> Ltree.shape -> Ltree.t option

(** Estimate and a sampler sharing the same sketches (cheaper when many
    samples are needed). *)
val estimator :
  config:config ->
  Tree_automaton.t ->
  Ltree.shape ->
  float * (unit -> Ltree.t option)

(** {2 The full N-slice}

    The paper's #TA (Definition 50) counts accepted inputs over {e all}
    trees with exactly [n] nodes. The sketches generalise by keying cells
    on [(state, subtree size)] instead of shape nodes: binary transitions
    union over all size splits (structurally disjoint), unary and leaf
    transitions over sizes [n-1] and [1]. *)

(** Estimate of [|L_n(A)|] (Definition 50's N-slice). *)
val estimate_slice : config:config -> Tree_automaton.t -> int -> float

(** Estimate plus an approximately-uniform sampler over the N-slice. *)
val slice_estimator :
  config:config ->
  Tree_automaton.t ->
  int ->
  float * (unit -> Ltree.t option)
