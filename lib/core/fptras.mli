(** The FPTRAS for counting answers (Theorems 5 and 13 via Lemma 22).

    The pipeline is exactly the paper's: the answers of [(φ, D)] are the
    hyperedges of the ℓ-partite answer hypergraph [H(φ, D)]
    (Definition 24, Observation 25); the Dell–Lapinskas–Meeks edge-count
    layer ({!Ac_dlm.Edge_count}) approximates their number through the
    [EdgeFree] oracle, and the oracle is simulated by colour-coded
    homomorphism tests ({!Colour_oracle}, Lemmas 22/30).

    Engine choice = theorem choice:
    - [Tree_dp] (default): Theorem 5 — [Hom] solved by tree-decomposition
      DP, fixed-parameter tractable for bounded-treewidth bounded-arity
      ECQs.
    - [Generic]: Theorem 13 — [Hom] solved by the worst-case-optimal
      join, covering bounded adaptive width DCQs (DESIGN.md
      substitution 2).
    - [Direct]: ablation — disequalities checked inside the join, no
      colour-coding and no width guarantee. *)

type result = {
  estimate : float;
  exact : bool;        (** the edge-count layer answered exactly *)
  level : int;         (** subsampling level used by the estimator *)
  repetitions : int;   (** median repetitions the estimator ran *)
  oracle_calls : int;  (** [EdgeFree] oracle invocations *)
  hom_calls : int;     (** homomorphism tests behind them *)
}

(** [(ε, δ)]-approximation of [|Ans(φ, D)|]. Boolean queries (ℓ = 0) are
    answered by a single oracle decision (the count is 0 or 1).
    [rounds] overrides the colouring budget per oracle call;
    [probe] switches the witness pre-pass (see {!Colour_oracle.create});
    [budget] is the cooperative-cancellation hook threaded into every
    oracle call — a tripped budget aborts with
    [Ac_runtime.Budget.Budget_exceeded].

    {e All} randomness — colourings included — derives from [exec]'s
    seed, and the estimator's median repetitions fan out over the
    engine's domains ({!Ac_dlm.Edge_count.estimate} with an [Engine]
    source), so the result is bit-identical for any jobs count. *)
val approx_count :
  ?budget:Ac_runtime.Budget.t ->
  exec:Ac_exec.Engine.t ->
  ?engine:Colour_oracle.engine ->
  ?rounds:int ->
  ?probe:bool ->
  eps:float ->
  delta:float ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  result

(** Exact count through the same oracle, by full splitting enumeration —
    demonstrates completeness of the oracle reduction (used by tests; cost
    grows linearly with the answer count). Randomised colourings make
    this "exact up to the one-sided colouring failure probability"; use
    [rounds] to push it down. Every colouring draws from [rng]. *)
val exact_count_via_oracle :
  ?budget:Ac_runtime.Budget.t ->
  rng:Random.State.t ->
  ?engine:Colour_oracle.engine ->
  ?rounds:int ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  result
