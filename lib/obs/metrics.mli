(** Process-wide metrics: counters, gauges and log-scale histograms.

    A {!t} is a registry; {!global} is the process-wide one every layer
    instruments (the [METRICS] wire verb and [acq stats --metrics]
    expose it). Instruments are identified by (name, sorted label set):
    registering the same series twice returns the same instrument, so
    call sites can re-register cheaply instead of threading handles.

    {b Domain safety.} Updates are lock-free ([Atomic]); registration
    takes the registry mutex. Histogram snapshots are only approximately
    consistent under concurrent updates (each bucket is read atomically,
    not the whole histogram) — exact for quiescent registries, which is
    what tests and exposition scrapes see.

    {b Kill switch.} {!set_enabled}[ false] turns every update into a
    single atomic load and branch — the "instrumentation compiled in but
    disabled" configuration benchmarked by [bench --obs]. Reads
    ({!snapshot}, [*_value]) are unaffected.

    {b Stability.} Metric names and label keys are a stable contract,
    documented in [docs/observability.md]. That includes the live
    mutable-database series ([acq_live_batches_total],
    [acq_live_replayed_batches_total], [acq_live_ops_total{op}],
    [acq_live_journal_appends_total], [acq_live_merge_*],
    [acq_recovery_batches_total]) registered lazily by [Ac_live] and
    [Ac_server] — lazily so that read-only deployments never export
    mutation series they cannot move. *)

type t
(** A registry. *)

val global : t
(** The process-wide registry. *)

val create : unit -> t
(** A private registry (tests). *)

val set_enabled : bool -> unit
val enabled : unit -> bool

(** {2 Instruments} *)

type counter
type gauge
type histogram

(** Get-or-create. Raises [Invalid_argument] when the series exists
    with a different kind. *)
val counter :
  ?help:string -> ?labels:(string * string) list -> t -> string -> counter

val gauge :
  ?help:string -> ?labels:(string * string) list -> t -> string -> gauge

val histogram :
  ?help:string -> ?labels:(string * string) list -> t -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val set : gauge -> int -> unit
val incr_gauge : gauge -> unit
val decr_gauge : gauge -> unit

val observe : histogram -> float -> unit

(** Shared histogram bucket upper bounds: powers of two from [2^-10] to
    [2^20]; an implicit [+Inf] bucket follows. *)
val bucket_bounds : float array

(** {2 Snapshots} *)

type hvalue = {
  counts : int array;  (** per-bucket (non-cumulative); length [|bucket_bounds| + 1] *)
  count : int;
  sum : float;
}

type value = Counter of int | Gauge of int | Histogram of hvalue

type metric = {
  metric_name : string;
  metric_help : string;
  metric_labels : (string * string) list;  (** sorted by key *)
  value : value;
}

(** All series, sorted by (name, labels) — deterministic. *)
val snapshot : t -> metric list

(** Prometheus text exposition format (version 0.0.4): [# HELP]/[# TYPE]
    per family, [_bucket{le=…}] cumulative counts, [_sum], [_count]. *)
val to_prometheus : t -> string

(** Zero every instrument (tests, bench). Registration survives. *)
val reset : t -> unit
