(** String-keyed LRU caches with hit/miss/eviction counters, plus the
    key builders the server uses.

    Both server caches are instances of {!Lru}: the {e plan cache}
    stores full analysis reports ([Ac_analysis.Report.t]) keyed on the
    query's canonical classification input and the database
    fingerprint (the report's db-aware lints depend on the database);
    the {e result cache} stores finished wire outcomes keyed on
    (query, db fingerprint, eps, delta, method, seed). All operations
    are thread-safe; the counters are exact under concurrency
    (every [find] is either a hit or a miss). *)

type stats = {
  capacity : int;
  length : int;
  hits : int;
  misses : int;
  evictions : int;
}

module Lru : sig
  type 'a t

  (** [capacity = 0] disables the cache: every [find] is a miss and
      [add] is a no-op — used to measure cold paths honestly. [name],
      when given, mirrors the counters to the process-wide metrics
      registry as [acq_cache_{hits,misses,evictions}_total{cache=name}]
      and [acq_cache_entries{cache=name}]; anonymous caches (tests,
      ad-hoc uses) keep only their exact per-instance {!stats}. *)
  val create : ?name:string -> capacity:int -> unit -> 'a t

  (** Refreshes the entry's recency on a hit. *)
  val find : 'a t -> string -> 'a option

  (** Inserts (or replaces) and evicts the least-recently-used entry
      when over capacity. *)
  val add : 'a t -> string -> 'a -> unit

  val stats : 'a t -> stats
end

val stats_to_json : stats -> Ac_analysis.Json.t

(** The database component of {!plan_key}/{!result_key} for a live
    (mutable) database: rolling fingerprint [@] version. A mutation
    changes both, so cached plans and results invalidate {e precisely}
    — entries for the old state stop being referenced, and the same
    version re-queried hits again. For inline databases the server
    passes the bare content fingerprint (version 0 semantics). *)
val db_key : fingerprint:string -> version:int -> string

(** Plan-cache key: [Ac_query.Ecq.key] plus the database fingerprint (the
    cached report carries database-aware diagnostics). *)
val plan_key : db_fingerprint:string -> Ac_query.Ecq.t -> string

(** Result-cache key: everything the estimate is a deterministic
    function of — query, database fingerprint, accuracy targets
    (rendered exactly, in hex), method and seed. [jobs] is absent by
    design: estimates are bit-identical for any jobs count. *)
val result_key :
  db_fingerprint:string ->
  eps:float ->
  delta:float ->
  method_name:string ->
  seed:int ->
  Ac_query.Ecq.t ->
  string
