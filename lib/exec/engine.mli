(** Chunked fan-out of independent estimation trials.

    Every approximation scheme in this repository — the Theorem 16
    FPRAS, the Theorem 5/13 FPTRASes, the ACJR sketches, the JVV
    samplers — reduces to running many {e independent} randomized trials
    and combining them (median, mean, pool). A {!t} describes how to run
    such a batch: a root [seed] and a [jobs] count. {!run} executes the
    batch, fanning contiguous index chunks out to the {!Pool} when
    [jobs > 1].

    {b Determinism.} Trial [i] draws all of its randomness from
    [Seeds.state ~seed ~stream:i] and results are combined in index
    order, so the outcome is bit-identical for {e any} [jobs] count —
    [jobs] is purely a throughput knob. Sequential phases of an
    estimator take their own streams via {!split}.

    {b Budgets.} The batch runs under per-chunk sub-slices of the given
    {!Ac_runtime.Budget.t} ({!Ac_runtime.Budget.split}): chunks tick
    their own slice once per trial, deep loops keep ticking whatever
    budget they were built over. The first chunk to fail — budget trip
    or any exception — cancels every sibling slice, the join waits for
    all workers (no stuck domains), ticks are absorbed back into the
    parent, and the error is re-raised with its backtrace; typed errors
    survive the join unchanged. When several chunks fail, the
    lowest-indexed non-cancellation failure wins, so error reporting is
    deterministic too. *)

type t

(** Default parallelism:
    [max 1 (Domain.recommended_domain_count () - 1)] — one domain is
    left to the caller/GC. *)
val default_jobs : unit -> int

(** The jobs rule: a requested count is clamped to at least 1, [None]
    is {!default_jobs}. *)
val resolve_jobs : int option -> int

(** [make ~seed ?jobs ()]. [jobs] resolves by {!resolve_jobs};
    [jobs <= 1] means fully sequential. *)
val make : ?jobs:int -> seed:int -> unit -> t

(** Sequential context ([jobs = 1]) — the zero-dependency special case;
    {!run} degenerates to a plain loop. *)
val sequential : seed:int -> t

val jobs : t -> int
val seed : t -> int

(** [split t i] — a context with the same [jobs] but the [i]-th derived
    seed, for handing independent randomness to a sub-phase or sub-rung
    without correlating its streams with the parent's. *)
val split : t -> int -> t

(** [state t ~stream] — the PRNG for stream [stream] of [t]'s seed
    (convenience for sequential phases). *)
val state : t -> stream:int -> Random.State.t

(** [with_span t sp] — the same context carrying tracing span [sp] as
    the parent for the per-trial spans {!run} opens (and, transitively,
    for the phase spans the estimators hang off {!span}). [None]
    (the default everywhere) disables trial tracing: {!run} pays a
    single branch per trial. {!split} preserves the span — sub-phases
    trace into the same parent unless re-spanned. *)
val with_span : t -> Ac_obs.Trace.span option -> t

val span : t -> Ac_obs.Trace.span option

(** [run t ?budget ~trials f] — [f ~rng ~budget i] for [i = 0 ..
    trials - 1], results in index order. [f] must take its randomness
    from [rng] only and may cooperate with the passed budget slice.
    Nested calls from inside a trial run sequentially (the pool never
    deadlocks on itself). *)
val run :
  ?budget:Ac_runtime.Budget.t ->
  t ->
  trials:int ->
  (rng:Random.State.t -> budget:Ac_runtime.Budget.t -> int -> 'a) ->
  'a array
