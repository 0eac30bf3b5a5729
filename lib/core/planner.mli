(** Resource-governed execution along the cost model's ladder.

    Figure 1 of the paper maps a query to one rung
    ({!Ac_analysis.Classification.regime}): CQs get the Theorem 16
    FPRAS; DCQs and ECQs get an FPTRAS (no FPRAS exists for them unless
    NP = RP, Observation 10), tree-decomposition DP in the
    bounded-arity/treewidth regime of Theorem 5, generic join in the
    unbounded-arity regime of Theorem 13; a statically empty query gets
    the exact join. {!run_rung} is the one place on the request path
    that calls an estimator.

    The widths that make these running times polynomial are only bounded
    for well-behaved queries; on an adversarial instance any pipeline can
    blow up combinatorially. {!count_governed} therefore walks the
    {!Ac_analysis.Ladder}: every applicable rung whose (ε, δ) guarantee
    holds, cheapest predicted cost first, each under a slice of an
    {!Ac_runtime.Budget.t}; then the cheapest sampling rung again at
    relaxed ε; then partial enumeration. It returns the first completed
    estimate tagged with the rung that produced it and whether the
    (ε, δ) guarantee still holds. The final rung never raises: it
    enumerates answers until the leftover budget trips and reports the
    count found so far — a crude lower bound, but a bounded answer
    instead of a hang or a crash. *)

type rung = Ac_analysis.Rung.t

(** {!Ac_analysis.Rung.name}. *)
val rung_name : rung -> string

(** Run one rung and return [(estimate, exact)] — the only call into
    [Fpras], [Fptras], [Exact.by_join_projection] and
    [Exact.partial_count] on the request path. All randomness derives
    from [exec]'s seed (the caller splits it: {!count_governed} runs
    each rung on [Engine.split exec (Rung.ordinal rung)]), so the
    estimate is bit-identical for any jobs count: the Fpras pipeline
    runs a median batch of sketch repetitions sized by [delta], the
    Fptras pipelines hand per-trial streams to the edge-count layer.
    [engine] replaces the FPTRAS rungs' own oracle engine ([Tree_dp] for
    [Tree_dp], [Generic] for [Generic_join]). [budget] is threaded into
    every inner loop; a trip raises [Ac_runtime.Budget.Budget_exceeded]
    (use {!count_governed} to degrade instead), except on [Partial],
    which stops and reports the count so far. [exact] is [true] when the
    value is an exact count. *)
val run_rung :
  budget:Ac_runtime.Budget.t ->
  exec:Ac_exec.Engine.t ->
  ?engine:Colour_oracle.engine ->
  eps:float ->
  delta:float ->
  rung ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  float * bool

(** {2 Governed execution} *)

(** A failed attempt at an earlier rung. *)
type attempt = { rung : rung; error : Ac_runtime.Error.t }

type governed = {
  estimate : float;
  rung : rung;        (** the rung that produced [estimate] *)
  guarantee : bool;
      (** [true]: the (ε, δ) guarantee (or better — exactness) holds;
          [false]: [estimate] is a best-effort lower bound *)
  degraded : bool;    (** some rung before [rung] failed *)
  eps_used : float;
      (** the ε the completing rung actually ran at — equals the
          requested ε unless a relaxed ladder step answered *)
  attempts : attempt list;  (** failed rungs, in the order tried *)
}

(** Walk [Ladder.build ~eps ~delta cost], running each step under a
    slice of [budget] (half the remainder; the final partial sweep gets
    all of it), and degrade to the next step on [Budget_exceeded] or any
    typed error. When every step fails the last error surfaces. With
    [strict:true] the Figure-1 rung ([classification.regime]) runs under
    the whole budget and its failure is returned as [Error] — no
    degradation. [chaos], when given, is consulted once per step
    ([Chaos.guard] with site ["rung:<name>"]) so fault-injection tests
    can force any step to fail deterministically. Every rung runs on its
    own ordinal split of [exec], so an estimate depends only on
    [(rung, seed, ε, δ)], never on the rung's position in the ladder.

    [classification] and [cost] must describe this query ([cost]
    instantiated from [db]'s statistics, as [Report.analyze ~db] builds
    it). [verbose] logs the plan, the ladder and every failed rung on
    stderr. The signature is checked up front
    ([Error (Signature_mismatch _)]) and a non-finite estimate is
    [Error (Numeric_overflow _)]. *)
val count_governed :
  ?budget:Ac_runtime.Budget.t ->
  exec:Ac_exec.Engine.t ->
  ?verbose:bool ->
  ?strict:bool ->
  ?chaos:Ac_runtime.Chaos.t ->
  classification:Ac_analysis.Classification.t ->
  cost:Ac_analysis.Cost.t ->
  eps:float ->
  delta:float ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  (governed, Ac_runtime.Error.t) result
