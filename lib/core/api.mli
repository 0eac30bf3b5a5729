(** The unified entry point.

    Everything the CLI (and any embedding application) needs is behind
    two calls: {!run} for counting and {!sample} for answer sampling.
    A {!request} names the query, the database, the accuracy targets
    and the execution envelope (method, seed, jobs, budget, strictness,
    fault injection); a {!response} carries the estimate together with
    everything needed to interpret and replay it (plan, rung,
    degradation trail, resolved seed, jobs, tick count, wall time).

    {b Determinism.} For a fixed [seed], estimates are bit-identical
    for {e any} [jobs] value: all randomness derives from per-trial
    SplitMix streams of the seed ({!Ac_exec.Seeds}) and trial results
    are combined in index order — [jobs] is purely a throughput knob.

    {b Errors.} No exception escapes {!run}/{!sample}; every failure is
    an [Ac_runtime.Error.t] ([Error.exit_code] gives the stable CLI
    exit code). The raising entry points of the inner layers
    ([Fpras.approx_count], [Fptras.approx_count], [Sampling.sample],
    …) remain available as documented internal variants. *)

type method_ =
  | Auto                              (** planner + governed fallback chain *)
  | Fpras                             (** Theorem 16 (CQs only) *)
  | Fptras of Colour_oracle.engine    (** Theorems 5 / 13 by engine *)
  | Exact                             (** exact join + projection *)
  | Brute                             (** brute-force enumeration *)

val method_name : method_ -> string

(** Canonical method spelling — the single codec shared by [bin/acq],
    the wire protocol and the bench harness. Every output of
    {!method_to_string} round-trips through {!method_of_string};
    [method_name] is the historical alias for {!method_to_string}. *)
val method_to_string : method_ -> string

(** Parse a method name (case-insensitive, surrounding whitespace
    ignored). Accepts the canonical spellings plus the short aliases
    ["fptras"], ["tree-dp"], ["generic"], ["direct"]; [None] for
    anything else. *)
val method_of_string : string -> method_ option

(** The accepted accuracy targets: ε finite and [> 0], δ in [(0, 1)].
    [Ok v] or the refusal message; the one rule behind the wire's
    [eps]/[delta] fields and [acq --eps/--delta], both of which refuse
    with the [parse] class (exit 10) before any work is done. *)
val check_accuracy : [ `Eps | `Delta ] -> float -> (float, string) result

type request = {
  query : Ac_query.Ecq.t;
  db : Ac_relational.Structure.t;
  eps : float;            (** accuracy target (default 0.25) *)
  delta : float;          (** failure probability (default 0.1) *)
  method_ : method_;      (** default [Auto] *)
  seed : int option;      (** [None]: fresh seed, logged when [verbose] *)
  jobs : int option;      (** [None]: {!Ac_exec.Engine.default_jobs} *)
  budget : Ac_runtime.Budget.t option;
  strict : bool;          (** [Auto]: fail fast instead of degrading *)
  verbose : bool;         (** stderr diagnostics *)
  chaos : Ac_runtime.Chaos.t option;  (** fault injection (tests) *)
  trace : Ac_obs.Trace.t option;
      (** span collector; [None] (default) disables tracing — the whole
          observability layer then costs one branch per layer, and
          estimates are bit-identical either way *)
}

(** The request builder: [make query db] carries the documented
    defaults, each [with_*] setter replaces one field, and the record
    pipes through [|>] — call sites name exactly the knobs they turn:

    {[
      Api.Request.make query db
      |> Api.Request.with_eps 0.1
      |> Api.Request.with_seed (Some 42)
    ]} *)
module Request : sig
  val make : Ac_query.Ecq.t -> Ac_relational.Structure.t -> request
  val with_eps : float -> request -> request
  val with_delta : float -> request -> request
  val with_method : method_ -> request -> request
  val with_seed : int option -> request -> request
  val with_jobs : int option -> request -> request
  val with_budget : Ac_runtime.Budget.t option -> request -> request
  val with_strict : bool -> request -> request
  val with_verbose : bool -> request -> request
  val with_trace : Ac_obs.Trace.t option -> request -> request
end

type telemetry = {
  seed : int;        (** the seed actually used — pass back to replay *)
  jobs : int;        (** the jobs count actually used *)
  ticks : int;       (** budget work ticks at completion *)
  elapsed_ms : float;
  trace : Ac_obs.Trace.summary option;
      (** per-name span aggregates (counts, wall time, tick
          attribution — e.g. which ["rung:…"] burned the budget) when
          the request carried a collector; [None] otherwise *)
}

type response = {
  estimate : float;
  exact : bool;                        (** the value is an exact count *)
  rung : Planner.rung option;          (** producing rung ([Auto] only) *)
  guarantee : bool;   (** the (ε, δ) guarantee (or exactness) holds *)
  degraded : bool;    (** a fallback rung produced the value *)
  eps_used : float;
      (** the ε the answer was computed at — the requested ε unless a
          budget-driven ladder step relaxed it ([Auto], costed path) *)
  attempts : Planner.attempt list;     (** failed rungs, in order *)
  report : Ac_analysis.Report.t;
      (** the static analysis (classification + lint diagnostics, with
          the database-aware checks, and the instantiated cost model —
          [report.cost] drives the [Auto] rung order; the [Auto] path's
          plan line is [Classification.describe] of its classification) *)
  telemetry : telemetry;
}

(** Count. The resolved seed is logged to stderr {e before} any
    computation starts (when [verbose] and self-initialised), so even a
    run that stalls can be replayed.

    [report], when given, must be the result of
    [Ac_analysis.Report.analyze ~db r.query] — callers that analyse
    once and serve many requests (the [acqd] plan cache) pass it to
    skip the static analysis, including the width computations; the
    response is identical either way. A report without a cost analysis
    (analysed without a db) is not reused. *)
val run :
  ?report:Ac_analysis.Report.t ->
  request ->
  (response, Ac_runtime.Error.t) result

(** The sampling counterpart of {!response} — estimate-free, but
    carrying the same interpretation context. *)
type sample_response = {
  draws : int array option array;
      (** draw [i] is [None] when the JVV walk failed to pin an answer *)
  degraded : bool;  (** some draw came back [None] *)
  report : Ac_analysis.Report.t;
  telemetry : telemetry;
}

(** Draw [draws] (default 1) approximately-uniform answers via the JVV
    sampler, fanned out over the request's jobs
    ({!Sampling.sample_many}); [method_] selects the oracle engine when
    it is [Fptras _] (otherwise the tree-DP engine). [report] plays the
    same role as in {!run}. *)
val sample :
  ?report:Ac_analysis.Report.t ->
  ?draws:int ->
  request ->
  (sample_response, Ac_runtime.Error.t) result
