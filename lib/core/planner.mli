(** Automatic algorithm selection following Figure 1, plus
    resource-governed execution.

    Given a query, {!plan} reads off the paper's classification — CQs get
    the Theorem 16 FPRAS; DCQs and ECQs get an FPTRAS (no FPRAS exists for
    them unless NP = RP, Observation 10), with the engine chosen by the
    regime: tree-decomposition DP in the bounded-arity/treewidth regime of
    Theorem 5, generic join in the unbounded-arity regime of Theorem 13.
    {!count_governed} plans and runs; {!run_algorithm} is the one place
    on the request path that calls an estimator.

    The widths that make these running times polynomial are only bounded
    for well-behaved queries; on an adversarial instance any pipeline can
    blow up combinatorially. {!count_governed} therefore runs the planned
    algorithm under a slice of an {!Ac_runtime.Budget.t} and, when the
    slice trips, degrades along a fallback chain

    {v planned → exact join → tree-DP FPTRAS → generic-join FPTRAS
       → partial enumeration v}

    (skipping the rung that equals the planned algorithm), returning the
    first completed estimate tagged with the rung that produced it and
    whether the (ε, δ) guarantee still holds. The final rung never
    raises: it enumerates answers until the leftover budget trips and
    reports the count found so far — a crude lower bound, but a bounded
    answer instead of a hang or a crash. *)

type algorithm =
  | Use_fpras                              (** Theorem 16 *)
  | Use_fptras of Colour_oracle.engine     (** Theorems 5 / 13 *)
  | Use_exact
      (** statically always empty (negated twin, QL005): exact count 0 *)

type query_class = Cq | Dcq | Ecq_full

type decision = {
  algorithm : algorithm;
  query_class : query_class;
  treewidth : int;     (** exact when [exact_widths] *)
  fhw : float;         (** exact when [exact_widths] *)
  exact_widths : bool; (** widths are exact for ≤ 14 variables *)
  reason : string;     (** pretty-printed from [classification] *)
  classification : Ac_analysis.Classification.t;
      (** the full static analysis the decision was read off from *)
}

(** Builds a decision from a classification — the only way decisions are
    made; {!plan} is [decision_of_classification ∘ Ac_analysis.Classify.classify]. *)
val decision_of_classification : Ac_analysis.Classification.t -> decision

val plan : Ac_query.Ecq.t -> decision

(** {!plan} with [Invalid_argument]/[Failure] mapped to typed errors. *)
val plan_result : Ac_query.Ecq.t -> (decision, Ac_runtime.Error.t) result

(** Run one algorithm and return [(estimate, exact)] — the only call
    into [Fpras], [Fptras] and [Exact.by_join_projection] on the request
    path. All randomness derives from [exec]'s seed, so the estimate is
    bit-identical for any jobs count: the Fpras pipeline runs a median
    batch of sketch repetitions sized by [delta], the Fptras pipelines
    hand per-trial streams to the edge-count layer. [budget] is threaded
    into every inner loop; a trip raises
    [Ac_runtime.Budget.Budget_exceeded] (use {!count_governed} to
    degrade instead). [exact] is [true] when the value is an exact count. *)
val run_algorithm :
  budget:Ac_runtime.Budget.t ->
  exec:Ac_exec.Engine.t ->
  eps:float ->
  delta:float ->
  algorithm ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  float * bool

(** {2 Governed execution} *)

(** A rung of the fallback chain. *)
type rung =
  | Fpras_rung     (** Theorem 16 sketch pipeline (CQs) *)
  | Exact_rung     (** exact join + projection *)
  | Tree_dp_rung   (** Theorem 5 FPTRAS, tree-DP engine *)
  | Generic_rung   (** Theorem 13 FPTRAS, generic-join engine *)
  | Partial_rung   (** best-effort partial enumeration, lower bound *)

val rung_name : rung -> string

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
          requested ε unless a cost-driven ladder step relaxed it *)
  attempts : attempt list;  (** failed rungs, in the order tried *)
  decision : decision;      (** the original plan *)
}

(** The {!Ac_analysis.Cost.rung} mirror, mapped back onto the planner's
    chain rungs. *)
val rung_of_cost : Ac_analysis.Cost.rung -> rung

(** Run the planned algorithm under a slice of [budget] and degrade down
    the chain on [Budget_exceeded] (or any typed error). With
    [strict:true] the planned algorithm runs under the whole budget and
    its first failure is returned as [Error] — no degradation. [chaos],
    when given, is consulted once per rung ([Chaos.guard] with site
    ["rung:<name>"]) so fault-injection tests can force any rung to
    fire deterministically. [exec] parallelises each rung's independent
    trials as in {!run_algorithm}; every rung derives its own engine seed
    (ordinal split), so a degraded retry does not replay the failed
    rung's random choices — and an estimate depends only on
    [(rung, seed, ε, δ)], never on the rung's position in the chain, so
    cost-driven reordering is estimate-preserving. [decision], when
    given (e.g. by [Api.run], which has already analysed the query),
    skips re-planning — and in particular re-computing the width
    measures.

    [cost], when given, replaces the static fallback order with the
    {!Ac_analysis.Ladder} schedule: every applicable rung whose (ε, δ)
    guarantee holds, cheapest predicted cost first, then the cheapest
    sampling rung again at relaxed ε (reported via [eps_used]), then
    the partial sweep. Ignored under [strict] (strict means: exactly
    the Figure-1 plan).

    [verbose] logs the plan and every failed rung on stderr. The
    signature is checked up front ([Error (Signature_mismatch _)]) and
    a non-finite estimate is [Error (Numeric_overflow _)]. *)
val count_governed :
  ?budget:Ac_runtime.Budget.t ->
  exec:Ac_exec.Engine.t ->
  ?verbose:bool ->
  ?strict:bool ->
  ?chaos:Ac_runtime.Chaos.t ->
  ?decision:decision ->
  ?cost:Ac_analysis.Cost.t ->
  eps:float ->
  delta:float ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  (governed, Ac_runtime.Error.t) result
