(** §6 extensions: approximately-uniform answer sampling and counting
    unions of queries.

    Sampling follows Jerrum–Valiant–Vazirani self-reducibility: free
    variables are pinned one at a time, each value chosen with probability
    proportional to the (approximate) count of answers extending the
    prefix; the pin is realised by restricting the corresponding class of
    the answer hypergraph, so the same [EdgeFree] oracle drives both
    counting and sampling. (For #CQ, {!Fpras.sample_answer} additionally
    exposes ACJR's native sampler.)

    Union counting is the classic Karp–Luby estimator over
    [Ans(φ₁) ∪ .. ∪ Ans(φ_m)] (all queries over the same free variables):
    draw a query proportionally to its answer count, draw one of its
    answers, weight by the inverse multiplicity.

    The sampling entry points come in two forms: {!make_sampler} /
    {!sample} draw from one given stream and raise on failure (a tripped
    budget raises [Ac_runtime.Budget.Budget_exceeded]); {!sample_many}
    fans independent draws out over an {!Ac_exec.Engine}. The typed
    public form is [Api.sample]. *)

(** [make_sampler ~eps ~delta q db] prepares a reusable sampler (the
    oracle and solver are built once); each call draws one
    approximately-uniform answer, or [None] when the (approximate) count
    is 0. Cost per draw: [ℓ · log |U|] counting calls (pinning by
    recursive halving). Every draw — halving choices, the counting
    estimates behind them and the oracle colourings — comes from [rng]
    in program order. *)
val make_sampler :
  ?budget:Ac_runtime.Budget.t ->
  rng:Random.State.t ->
  ?engine:Colour_oracle.engine ->
  ?rounds:int ->
  eps:float ->
  delta:float ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  unit ->
  int array option

(** One-shot {!make_sampler}. *)
val sample :
  ?budget:Ac_runtime.Budget.t ->
  rng:Random.State.t ->
  ?engine:Colour_oracle.engine ->
  ?rounds:int ->
  eps:float ->
  delta:float ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  int array option

(** [draws] independent JVV draws fanned out over [exec]'s domains: the
    oracle is built once and shared read-only, draw [i] runs entirely on
    stream [i] of the engine's seed, results come back in draw order —
    bit-identical for any jobs count. [budget] governs the batch through
    per-chunk sub-slices. *)
val sample_many :
  ?budget:Ac_runtime.Budget.t ->
  ?engine:Colour_oracle.engine ->
  ?rounds:int ->
  exec:Ac_exec.Engine.t ->
  draws:int ->
  eps:float ->
  delta:float ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  int array option array

(** The §6 alternative sampler: answers are the hyperedges of [H(φ, D)],
    so the Dell–Lapinskas–Meeks edge sampler
    ({!Ac_dlm.Edge_count.sample_edge}) over the colour-coded oracle draws
    an answer directly. *)
val sample_dlm :
  ?budget:Ac_runtime.Budget.t ->
  rng:Random.State.t ->
  ?engine:Colour_oracle.engine ->
  ?rounds:int ->
  eps:float ->
  delta:float ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  int array option

(** Exactly-uniform sampling by full enumeration (testing baseline). *)
val sample_exact :
  rng:Random.State.t ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  int array option

(** Exact [|⋃ Ans(φ_i, D)|] by enumeration (baseline). All queries must
    share the number of free variables. *)
val union_count_exact : Ac_query.Ecq.t list -> Ac_relational.Structure.t -> int

(** Karp–Luby estimate of [|⋃ Ans(φ_i, D)|] using per-query enumeration
    for the sampling pools ([rounds] draws, default 2000). *)
val union_count_karp_luby :
  rng:Random.State.t ->
  ?rounds:int ->
  Ac_query.Ecq.t list ->
  Ac_relational.Structure.t ->
  float

(** Fully approximate Karp–Luby union counting: per-query cardinalities
    from the FPTRAS, draws from the JVV samplers, membership through the
    counting oracle — no exact enumeration anywhere. [kl_rounds] draws
    (default 60; each costs one JVV sample plus one membership decision
    per query). Query [j]'s cardinality runs on [Engine.split exec
    (j + 1)]; the draws, picks and membership probes share stream 0 of
    [exec]'s seed. *)
val union_count_approx :
  exec:Ac_exec.Engine.t ->
  ?engine:Colour_oracle.engine ->
  ?rounds:int ->
  ?kl_rounds:int ->
  eps:float ->
  delta:float ->
  Ac_query.Ecq.t list ->
  Ac_relational.Structure.t ->
  float
