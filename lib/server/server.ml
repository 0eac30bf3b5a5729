module Api = Approxcount.Api
module Ecq = Ac_query.Ecq
module Structure_io = Ac_relational.Structure_io
module Budget = Ac_runtime.Budget
module Error = Ac_runtime.Error
module Engine = Ac_exec.Engine
module Pool = Ac_exec.Pool
module Report = Ac_analysis.Report
module Json = Ac_analysis.Json
module Trace = Ac_obs.Trace
module Metrics = Ac_obs.Metrics
module Live = Ac_live.Live
module Journal = Ac_live.Journal

type config = {
  queue_capacity : int;
  plan_cache_capacity : int;
  result_cache_capacity : int;
  default_timeout_ms : int option;
  manifest : string option;
  merge_threshold : int;
  merge_ratio : float;
  tenant_quota : int option;
  verbose : bool;
}

let default_config =
  {
    queue_capacity = 64;
    plan_cache_capacity = 256;
    result_cache_capacity = 1024;
    default_timeout_ms = None;
    manifest = None;
    merge_threshold = 4096;
    merge_ratio = 0.25;
    tenant_quota = None;
    verbose = false;
  }

type t = {
  config : config;
  router : Router.t option;
  catalog : Catalog.t;
  plan_cache : Report.t Cache.Lru.t;
  result_cache : Wire.outcome Cache.Lru.t;
  scheduler : Scheduler.t;
  inflight : Wire.response Inflight.t;
  recovered : bool Atomic.t;
  started_ms : float;
  requests : (Wire.Verb.t * int Atomic.t) list;
      (* requests handled, one count per verb in wire order *)
  malformed : int Atomic.t;  (* frames that did not decode *)
  stopping : bool Atomic.t;
  (* self-pipe: request_stop writes one byte, the accept loop selects
     on the read end — signal-handler-safe wakeup *)
  stop_r : Unix.file_descr;
  stop_w : Unix.file_descr;
  conns_mutex : Mutex.t;
  mutable conns : (Unix.file_descr * Thread.t) list;
  (* serializes merge persistence (snapshot save → catalog repoint →
     manifest sync → journal truncate) across connection threads *)
  merge_mutex : Mutex.t;
}

let create ?router ?(config = default_config) () =
  let stop_r, stop_w = Unix.pipe () in
  {
    config;
    router;
    catalog = Catalog.create ();
    plan_cache =
      Cache.Lru.create ~name:"plan" ~capacity:config.plan_cache_capacity ();
    result_cache =
      Cache.Lru.create ~name:"result" ~capacity:config.result_cache_capacity ();
    scheduler =
      Scheduler.create ~capacity:config.queue_capacity
        ?tenant_quota:config.tenant_quota ();
    inflight = Inflight.create ();
    recovered = Atomic.make false;
    started_ms = Unix.gettimeofday () *. 1000.0;
    requests = List.map (fun v -> (v, Atomic.make 0)) Wire.Verb.all;
    malformed = Atomic.make 0;
    stopping = Atomic.make false;
    stop_r;
    stop_w;
    conns_mutex = Mutex.create ();
    conns = [];
    merge_mutex = Mutex.create ();
  }

let catalog t = t.catalog
let scheduler t = t.scheduler
let router t = t.router
let recovered t = Atomic.get t.recovered

(* ---------- crash-safe catalog ---------- *)

(* Every file-backed load refreshes the manifest, so the snapshot on
   disk always names exactly the databases a restarted daemon must
   replay. Failing to persist the manifest is a hard error: a daemon
   that cannot write its recovery state should not pretend it can
   recover. *)
let sync_manifest t =
  match t.config.manifest with
  | None -> Ok ()
  | Some path ->
      (* a router daemon stamps its partition spec on every entry so a
         restart re-cuts the data exactly as before *)
      let partition =
        Option.map
          (fun r -> Partition.spec_to_string (Router.spec r))
          t.router
      in
      Manifest.store ~path ?partition t.catalog

let journal_path t ~name =
  Option.map (fun m -> Printf.sprintf "%s.%s.journal" m name) t.config.manifest

let load_db t ~name ~path =
  match Catalog.find t.catalog name with
  | Some entry when Atomic.get t.recovered ->
      (* this name was just replayed from the manifest: its journal
         holds acknowledged batches, and a fresh load would reset that
         journal and rewrite the manifest at version 0 — a routine
         restart that passes the same --load as the first boot must not
         silently discard acknowledged mutations. A genuinely fresh
         load needs the manifest (and journal) removed first. *)
      Ok entry
  | _ -> (
      match Catalog.load t.catalog ~name ~path with
      | Error e -> Error e
      | Ok entry -> (
          (* a fresh load starts a fresh journal: a leftover journal
             from a previous life belongs to a different snapshot
             lineage and must not replay on top of this one *)
          let journal_ok =
            match journal_path t ~name with
            | None -> Ok ()
            | Some jpath -> (
                match Journal.reset jpath with
                | Ok () ->
                    Catalog.set_journal t.catalog name (Some jpath);
                    Ok ()
                | Error e -> Error e)
          in
          match journal_ok with
          | Error e -> Error e
          | Ok () -> (
              match sync_manifest t with
              | Ok () -> Ok entry
              | Error e -> Error e)))

let recover t =
  match t.config.manifest with
  | None -> Ok []
  | Some path -> (
      match Unix.access path [ Unix.F_OK ] with
      | exception Unix.Unix_error _ -> Ok []
      | () -> (
          match Manifest.recover ~path t.catalog with
          | Error e -> Error e
          | Ok names ->
              if names <> [] then Atomic.set t.recovered true;
              Ok names))

type session = { mutable current : Catalog.entry option }

let new_session _t = { current = None }

(* ---------- db resolution ---------- *)

let unknown_db name =
  Error.Io { file = name; msg = "unknown database (not in the catalog)" }

let session_entry session =
  Option.to_result session.current
    ~none:
      (Error.Io
         {
           file = "<session>";
           msg = "no database selected — send USE <name> first";
         })

let resolve_db t session = function
  | Wire.Named name ->
      Option.to_result (Catalog.find t.catalog name) ~none:(unknown_db name)
  | Wire.Inline text -> (
      match Structure_io.of_string ~name:"<inline>" text with
      | db ->
          (* not registered in the catalog: inline databases are
             per-request, but the fingerprint still keys the caches;
             sealed so the join path reads columns like catalog entries *)
          let db = Ac_relational.Structure.seal db in
          Ok
            (Catalog.
               {
                 name = "<inline>";
                 db;
                 fingerprint = Ac_relational.Structure.fingerprint db;
                 version = 0;
                 universe = Ac_relational.Structure.universe_size db;
                 size = Ac_relational.Structure.size db;
                 relations = [];
                 source = None;
               })
      | exception Failure msg ->
          Error (Error.Parse { source = "<inline>"; msg }))
  | Wire.Session ->
      (* re-resolve by name: the session pins a {e database}, not a
         version — a USE taken before a mutation must not serve the
         stale snapshot (or stale cache keys) afterwards *)
      Result.map
        (fun entry ->
          Option.value (Catalog.find t.catalog entry.Catalog.name)
            ~default:entry)
        (session_entry session)

(* The entry and the parsed query a COUNT or SAMPLE names. *)
let resolve_query t session (p : Wire.params) =
  Result.bind (resolve_db t session p.Wire.db) (fun entry ->
      Result.map (fun query -> (entry, query)) (Ecq.parse_result p.Wire.query))

(* Per-request budget: the scheduler's sub-slice when the request sets
   no limits (unarmed — bit-parity with a single-shot run), a fresh
   armed budget otherwise, with its work absorbed into the slice so the
   global ceiling still sees it. *)
let request_budget (p : Wire.params) ~default_timeout_ms slice =
  let timeout_ms =
    match p.Wire.timeout_ms with Some v -> Some v | None -> default_timeout_ms
  in
  (* the deadline also caps the wall clock: work past it is wasted *)
  let timeout_ms =
    match (timeout_ms, p.Wire.deadline_ms) with
    | Some t, Some d -> Some (min t d)
    | None, d -> d
    | t, None -> t
  in
  match (timeout_ms, p.Wire.max_heap_mb) with
  | None, None -> (slice, fun () -> ())
  | _ ->
      let b =
        Budget.create ~label:"req"
          ?deadline_ms:(Option.map float_of_int timeout_ms)
          ?max_heap_mb:p.Wire.max_heap_mb ()
      in
      (b, fun () -> Budget.absorb slice b)

(* The one translation of wire params into an [Api] request: under the
   request budget carved from the scheduler slice, traced when the
   request asks for it. [f] is [Api.run] or [Api.sample]. *)
let run_api t (p : Wire.params) (entry : Catalog.entry) query slice f =
  let budget, absorb =
    request_budget p ~default_timeout_ms:t.config.default_timeout_ms slice
  in
  let tracer = if p.Wire.trace then Some (Trace.create ()) else None in
  let result =
    f
      (Api.Request.make query entry.Catalog.db
      |> Api.Request.with_eps p.Wire.eps
      |> Api.Request.with_delta p.Wire.delta
      |> Api.Request.with_method p.Wire.method_
      |> Api.Request.with_seed p.Wire.seed
      |> Api.Request.with_jobs p.Wire.jobs
      |> Api.Request.with_budget (Some budget)
      |> Api.Request.with_strict p.Wire.strict
      |> Api.Request.with_verbose t.config.verbose
      |> Api.Request.with_trace tracer)
  in
  absorb ();
  result

(* ---------- COUNT ---------- *)

(* One COUNT under admission control: [work] runs in the scheduler slot
   with the result-cache provenance to report, and a deterministic,
   guaranteed outcome fills the result cache. A local COUNT estimates on
   the calling thread; a scattered one fans out on the fleet, so its
   slot only accounts for admission (and tenant quota) while the router
   threads wait on worker replies — the #fleetN-tagged key keeps the
   two result spaces apart. *)
let admit_count t ~result_key (p : Wire.params) work =
  let result_cache = if result_key = None then "bypass" else "miss" in
  match
    Scheduler.submit t.scheduler ~label:"count" ?tenant:p.Wire.tenant
      ?deadline_ms:p.Wire.deadline_ms (work ~result_cache)
  with
  | Error e | Ok (Error e) -> Wire.response_of_error e
  | Ok (Ok outcome) ->
      (match result_key with
      | Some key when not outcome.Wire.degraded ->
          (* degraded answers depend on budget timing — only
             deterministic, guaranteed results are cached *)
          Cache.Lru.add t.result_cache key outcome
      | _ -> ());
      Wire.Counted outcome

(* The local COUNT's work: plan-cache lookup, then [Api.run]. *)
let run_local t entry ~db_fingerprint (p : Wire.params) query ~result_cache
    slice =
  let plan_key = Cache.plan_key ~db_fingerprint query in
  let report, plan_cache =
    match Cache.Lru.find t.plan_cache plan_key with
    | Some rep -> (rep, "hit")
    | None ->
        let rep = Report.analyze ~db:entry.Catalog.db query in
        Cache.Lru.add t.plan_cache plan_key rep;
        (rep, "miss")
  in
  Result.map
    (Wire.outcome_of_response ~plan_cache ~result_cache)
    (run_api t p entry query slice (Api.run ~report))

let run_count t session (p : Wire.params) =
  match resolve_query t session p with
  | Error e -> Wire.response_of_error e
  | Ok (entry, query) -> (
      (* fleet routing: when this daemon fronts a sharded fleet
         holding [entry]'s shards and the query's join structure
         decomposes over the partition, the COUNT scatters instead
         of running locally. Non-decomposing queries fall back to
         the local full copy — counted, so a fleet that never
         scatters is visible. *)
      let fleet =
        match t.router with
        | Some router when Router.manages router entry.Catalog.name -> (
            match Router.plan router query with
            | Ok _var -> Some (router, entry.Catalog.name)
            | Error _reason ->
                Router.note_fallback router ~reason:"cross_shard";
                None)
        | _ -> None
      in
      (* (rolling fingerprint @ version): cache entries stop being
         referenced the moment a mutation moves the db, and hit
         again whenever the same version is re-queried. A scattered
         result is the sum of per-shard runs — a different
         experiment than a local run under the same seed — so the
         fleet shard count is part of the key *)
      let db_fingerprint =
        let base =
          Cache.db_key ~fingerprint:entry.Catalog.fingerprint
            ~version:entry.Catalog.version
        in
        match fleet with
        | Some (router, _) ->
            Printf.sprintf "%s#fleet%d" base (Router.shards router)
        | None -> base
      in
      let result_key =
        Option.map
          (fun seed ->
            Cache.result_key ~db_fingerprint ~eps:p.Wire.eps
              ~delta:p.Wire.delta
              ~method_name:(Api.method_name p.Wire.method_)
              ~seed query)
          p.Wire.seed
      in
      (* result-cache-hot requests skip admission too: they do no
         estimation work, so they must not occupy a queue slot *)
      match Option.map (Cache.Lru.find t.result_cache) result_key with
      | Some (Some cached) ->
          (* a replay does no work, so it carries no trace even when
             the request asked for one *)
          Wire.Counted
            {
              cached with
              Wire.jobs = Engine.resolve_jobs p.Wire.jobs;
              ticks = 0;
              elapsed_ms = 0.0;
              trace = None;
              plan_cache = "bypass";
              result_cache = "hit";
            }
      | Some None | None ->
          let compute () =
            admit_count t ~result_key p
              (match fleet with
              | Some (router, name) ->
                  fun ~result_cache _slice ->
                    Result.map
                      (fun o -> { o with Wire.result_cache })
                      (Router.scatter_count router ~name p)
              | None -> run_local t entry ~db_fingerprint p query)
          in
          (* a seeded request is deduplicated against identical
             in-flight work: a retry that races its original joins
             the leader instead of spending budget twice *)
          (match result_key with
          | None -> compute ()
          | Some key -> (
              match Inflight.run t.inflight ~key compute with
              | Inflight.Leader, response -> response
              | Inflight.Follower, response -> (
                  Metrics.incr
                    (Metrics.counter Metrics.global
                       "acq_inflight_deduped_total"
                       ~help:
                         "Requests answered by joining identical \
                          in-flight work instead of recomputing");
                  match response with
                  | Wire.Counted o ->
                      (* like a cache replay: the follower did no
                         work of its own *)
                      Wire.Counted
                        {
                          o with
                          Wire.ticks = 0;
                          elapsed_ms = 0.0;
                          trace = None;
                          result_cache = "inflight";
                        }
                  | other -> other))))

(* ---------- SAMPLE ---------- *)

let run_sample t session (p : Wire.params) ~draws =
  match resolve_query t session p with
  | Error e -> Wire.response_of_error e
  | Ok (entry, query) -> (
      match
        Scheduler.submit t.scheduler ~label:"sample" ?tenant:p.Wire.tenant
          ?deadline_ms:p.Wire.deadline_ms (fun slice ->
            run_api t p entry query slice (Api.sample ~draws))
      with
      | Error e | Ok (Error e) -> Wire.response_of_error e
      | Ok (Ok s) ->
          Wire.Sampled
            {
              samples = s.Api.draws;
              seed = s.Api.telemetry.Api.seed;
              jobs = s.Api.telemetry.Api.jobs;
              ticks = s.Api.telemetry.Api.ticks;
              elapsed_ms = s.Api.telemetry.Api.elapsed_ms;
              trace = s.Api.telemetry.Api.trace;
            })

(* ---------- INSERT / DELETE / LOAD_BATCH ---------- *)

let m_live_batches =
  lazy
    (Metrics.counter Metrics.global "acq_live_batches_total"
       ~help:"Mutation batches applied to live databases")

let m_live_replayed =
  lazy
    (Metrics.counter Metrics.global "acq_live_replayed_batches_total"
       ~help:"Mutation batches answered from the idempotency table instead \
              of re-applying")

let m_live_journal_appends =
  lazy
    (Metrics.counter Metrics.global "acq_live_journal_appends_total"
       ~help:"Mutation batches appended (fsynced) to a delta journal")

let m_live_ops op =
  Metrics.counter Metrics.global "acq_live_ops_total"
    ~help:"Mutation operations applied, by direction" ~labels:[ ("op", op) ]

let live_ops_of_request = function
  | Wire.Insert { rel; tuples; _ } ->
      List.map (fun tuple -> Live.Db.Insert { rel; tuple }) tuples
  | Wire.Delete { rel; tuples; _ } ->
      List.map (fun tuple -> Live.Db.Delete { rel; tuple }) tuples
  | Wire.Load_batch { ops; _ } -> ops
  | _ -> []

(* Post-mutation compaction. When the delta crosses the policy
   threshold the deltas fold back into sealed columns under the
   request's budget slice; for a file-backed entry the compacted
   snapshot is then persisted (fresh versioned file + atomic manifest
   switch + journal restart — each crash window between those steps
   recovers correctly, see Manifest). Compaction is an optimization:
   if any step fails, the mutation has already been journaled and
   acknowledged, so the delta simply stays resident and the next batch
   retries. *)
let persist_merge t ~name live budget manifest =
  let persisted =
    List.find_opt
      (fun (p : Catalog.persistence) -> p.Catalog.p_name = name)
      (Catalog.persistence t.catalog)
  in
  match persisted with
  | None -> () (* in-memory db: nothing to persist *)
  | Some prior -> (
      (* one consistent (version, fingerprint, snapshot) triple: a
         concurrent writer may advance the db between any two steps
         here, so everything below persists exactly this version, and
         the journal truncate keeps any batch past it *)
      match Live.Db.current ~budget live with
      | exception Budget.Budget_exceeded _ -> ()
      | version, live_fingerprint, snap -> (
          let path =
            Printf.sprintf "%s.%s.v%d.snapshot" manifest name version
          in
          (* durable before the manifest names it: the journal lines
             it replaces are dropped right after *)
          match Journal.write_atomic path (Structure_io.to_string snap) with
          | Error _ -> ()
          | Ok () ->
              let fingerprint = Ac_relational.Structure.fingerprint snap in
              Catalog.compact_source t.catalog name ~path ~fingerprint
                ~version ~live_fingerprint;
              (match sync_manifest t with
              | Error _ ->
                  (* roll the slot back to the prior snapshot so catalog
                     state matches the manifest on disk — at the prior
                     file's own version/fingerprint, not the live db's
                     current ones, which the old file does not capture *)
                  Catalog.compact_source t.catalog name
                    ~path:prior.Catalog.p_path
                    ~fingerprint:prior.Catalog.p_fingerprint
                    ~version:prior.Catalog.p_version
                    ~live_fingerprint:prior.Catalog.p_live_fingerprint
              | Ok () ->
                  (match Catalog.journal_of t.catalog name with
                  | Some jpath ->
                      (* under the db's write lock: an append between
                         the truncate's read and its rename would be
                         lost *)
                      ignore
                        (Live.Db.exclusively live (fun () ->
                             Journal.truncate jpath ~upto:version))
                  | None -> ());
                  (* drop the superseded generated snapshot (never a
                     user-supplied source file) *)
                  if
                    prior.Catalog.p_path <> path
                    && String.starts_with ~prefix:(manifest ^ ".")
                         prior.Catalog.p_path
                  then
                    try Unix.unlink prior.Catalog.p_path
                    with Unix.Unix_error _ -> ())))

let maybe_merge t ~name live budget =
  if
    Live.Db.needs_merge ~threshold:t.config.merge_threshold
      ~ratio:t.config.merge_ratio live
  then begin
    (* try_lock, not lock: a merge is an optimization — if another
       thread is mid-persistence, interleaving a second merge's steps
       could pair a manifest version with the wrong snapshot file, so
       the loser just leaves its delta for the next batch *)
    if Mutex.try_lock t.merge_mutex then
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.merge_mutex)
        (fun () ->
          match Live.Db.merge ~budget live with
          | exception Budget.Budget_exceeded _ -> ()
          | _compacted -> (
              match t.config.manifest with
              | None -> ()
              | Some manifest -> persist_merge t ~name live budget manifest))
  end

let run_mutation t session req =
  let verb = Wire.verb_name req in
  let db_ref, batch_id =
    match req with
    | Wire.Insert { db; batch_id; _ }
    | Wire.Delete { db; batch_id; _ }
    | Wire.Load_batch { db; batch_id; _ } ->
        (db, batch_id)
    | _ -> (Wire.Session, None)
  in
  let name_result =
    match db_ref with
    | Wire.Named n -> Ok n
    | Wire.Inline _ ->
        Error
          (Error.Parse
             {
               source = "wire";
               msg =
                 "mutations need a named catalog database (\"use\"), not \
                  \"db_inline\" — inline databases are per-request";
             })
    | Wire.Session ->
        Result.map (fun e -> e.Catalog.name) (session_entry session)
  in
  match name_result with
  | Error e -> Wire.response_of_error e
  | Ok name -> (
      match Catalog.live_find t.catalog name with
      | None -> Wire.response_of_error (unknown_db name)
      | Some live -> (
          let ops = live_ops_of_request req in
          (* resolved before apply: the journal hook below runs under
             the db mutex and must not take the catalog mutex there
             (catalog lookups take catalog-then-db, so the reverse
             order could deadlock) *)
          let jpath = Catalog.journal_of t.catalog name in
          (* the journal append runs {e inside} the apply critical
             section (Live.Db.apply ~journal) and {e before} the reply:
             batches journal in version order (two concurrent batches
             can never journal as v2,v1 — recovery replays in file
             order), a failed append rolls the whole batch back instead
             of leaving an applied-but-unjournaled gap in the
             fingerprint chain, and once the client hears success a
             crash cannot lose the batch. An unacknowledged batch that
             made it to the journal is fine — the client retries with
             the same batch_id and gets the replayed result
             (exactly-once across crashes). *)
          let journal applied =
            match jpath with
            | None -> Ok ()
            | Some jpath -> (
                let line =
                  {
                    Journal.seq = applied.Live.Db.version;
                    id = batch_id;
                    fingerprint = applied.Live.Db.fingerprint;
                    ops;
                  }
                in
                match Journal.append jpath line with
                | Ok () ->
                    Metrics.incr (Lazy.force m_live_journal_appends);
                    Ok ()
                | Error e -> Error e)
          in
          let result =
            Scheduler.submit t.scheduler ~label:verb (fun slice ->
                match Live.Db.apply ?id:batch_id ~journal live ops with
                | Error e -> Error e
                | Ok applied ->
                    Metrics.incr (Lazy.force m_live_batches);
                    if applied.Live.Db.replayed then begin
                      Metrics.incr (Lazy.force m_live_replayed);
                      Ok applied
                    end
                    else begin
                      List.iter
                        (fun op ->
                          Metrics.incr
                            (m_live_ops
                               (match op with
                               | Live.Db.Insert _ -> "insert"
                               | Live.Db.Delete _ -> "delete")))
                        ops;
                      maybe_merge t ~name live slice;
                      Ok applied
                    end)
          in
          match result with
          | Error e -> Wire.response_of_error e
          | Ok (Error e) -> Wire.response_of_error e
          | Ok (Ok applied) ->
              Wire.Mutated
                {
                  name;
                  db_version = applied.Live.Db.version;
                  fingerprint = applied.Live.Db.fingerprint;
                  inserted = applied.Live.Db.inserted;
                  deleted = applied.Live.Db.deleted;
                  replayed = applied.Live.Db.replayed;
                }))

(* ---------- STATS ---------- *)

let stats_json t =
  let requests =
    Json.Obj
      (List.map
         (fun (verb, n) -> (Wire.Verb.to_string verb, Json.Int (Atomic.get n)))
         t.requests
      @ [ ("malformed", Json.Int (Atomic.get t.malformed)) ])
  in
  let led, followed, waiting = Inflight.stats t.inflight in
  Json.Obj
    [
      ( "uptime_ms",
        Json.Float ((Unix.gettimeofday () *. 1000.0) -. t.started_ms) );
      ("recovered", Json.Bool (Atomic.get t.recovered));
      ("requests", requests);
      ( "inflight_dedup",
        Json.Obj
          [
            ("led", Json.Int led);
            ("followed", Json.Int followed);
            ("waiting", Json.Int waiting);
          ] );
      ( "catalog",
        Json.List (List.map Catalog.entry_to_json (Catalog.entries t.catalog))
      );
      ("plan_cache", Cache.stats_to_json (Cache.Lru.stats t.plan_cache));
      ( "result_cache",
        Cache.stats_to_json (Cache.Lru.stats t.result_cache) );
      ("scheduler", Scheduler.stats_to_json (Scheduler.stats t.scheduler));
      ("pool_workers", Json.Int (Pool.spawned (Pool.shared ())));
    ]

(* ---------- dispatch ---------- *)

(* Every handled request lands in the global registry: volume by verb
   and wire status, latency by verb. *)
let observe_request ~verb ~status ~elapsed_ms =
  Metrics.incr
    (Metrics.counter Metrics.global "acq_requests_total"
       ~help:"Wire requests handled, by verb and status"
       ~labels:[ ("verb", verb); ("status", string_of_int status) ]);
  Metrics.observe
    (Metrics.histogram Metrics.global "acq_request_duration_ms"
       ~help:"Wire request handling duration (milliseconds)"
       ~labels:[ ("verb", verb) ])
    elapsed_ms

let handle_request t session req =
  match req with
  | Wire.Ping -> Wire.Pong
  | Wire.Health ->
      let s = Scheduler.stats t.scheduler in
      let draining = Atomic.get t.stopping in
      Wire.Health_reply
        {
          Wire.ready = not draining;
          live = true;
          draining;
          in_flight = s.Scheduler.in_flight;
          queue_capacity = s.Scheduler.capacity;
          catalog_entries = List.length (Catalog.entries t.catalog);
          recovered = Atomic.get t.recovered;
          uptime_ms = (Unix.gettimeofday () *. 1000.0) -. t.started_ms;
        }
  | Wire.Stats -> Wire.Stats_reply (stats_json t)
  | Wire.Metrics_req { format } ->
      Wire.Metrics_reply
        { format; payload = Wire.metrics_payload ~format Metrics.global }
  | Wire.Use name -> (
      match resolve_db t session (Wire.Named name) with
      | Ok entry ->
          session.current <- Some entry;
          Wire.Used
            {
              name = entry.Catalog.name;
              fingerprint = entry.Catalog.fingerprint;
              universe = entry.Catalog.universe;
              size = entry.Catalog.size;
            }
      | Error e -> Wire.response_of_error e)
  | Wire.Load { name; text } -> (
      (* the fleet seeding verb: parse the shipped text and register it
         as an in-memory catalog entry (replacing any existing slot).
         Not file-backed, so it does not enter the recovery manifest —
         a restarted worker simply reports unknown-database and the
         router re-pushes from its cached shard text. *)
      match Structure_io.of_string ~name text with
      | db ->
          let entry = Catalog.add t.catalog ~name db in
          Wire.Loaded
            {
              name = entry.Catalog.name;
              fingerprint = entry.Catalog.fingerprint;
              universe = entry.Catalog.universe;
              size = entry.Catalog.size;
            }
      | exception Failure msg ->
          Wire.response_of_error (Error.Parse { source = name; msg }))
  | Wire.Count p -> run_count t session p
  | Wire.Sample { params = p; draws } -> run_sample t session p ~draws
  | (Wire.Insert _ | Wire.Delete _ | Wire.Load_batch _) as req ->
      run_mutation t session req

let handle t session req =
  let t0 = Unix.gettimeofday () in
  Atomic.incr (List.assoc (Wire.verb_of_request req) t.requests);
  let response = handle_request t session req in
  observe_request ~verb:(Wire.verb_name req)
    ~status:(Wire.status_of_response response)
    ~elapsed_ms:((Unix.gettimeofday () -. t0) *. 1000.0);
  response

(* ---------- connections ---------- *)

let serve_connection t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let session = new_session t in
  let refuse msg =
    Atomic.incr t.malformed;
    Wire.response_of_error (Error.Parse { source = "wire"; msg })
  in
  let rec loop () =
    match Wire.read_json ic with
    | Wire.Eof -> ()
    | Wire.Bad msg -> (
        match Wire.write_json oc (Wire.response_to_json (refuse msg)) with
        | () -> loop ()
        | exception Sys_error _ -> ())
    | Wire.Msg j -> (
        (* echo the client's envelope id so a retrying client can match
           this response to its request and drop duplicate frames *)
        let id = Wire.json_id j in
        let response =
          match Wire.request_of_json j with
          | Ok req -> handle t session req
          | Error msg -> refuse msg
        in
        match Wire.write_json oc (Wire.response_to_json ?id response) with
        | () -> loop ()
        | exception Sys_error _ -> ())
  in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    loop

(* ---------- listeners and the accept loop ---------- *)

let listen_unix ?(force = false) ~path () =
  let io msg = Error (Error.Io { file = path; msg }) in
  let bind_fresh () =
    match
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
    with
    | fd -> Ok fd
    | exception Unix.Unix_error (e, _, _) -> io (Unix.error_message e)
  in
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> bind_fresh ()
  | exception Unix.Unix_error (e, _, _) -> io (Unix.error_message e)
  | { Unix.st_kind = Unix.S_SOCK; _ } -> (
      (* the file alone is ambiguous: probe-connect to learn whether a
         daemon is behind it (refuse — two daemons on one socket) or it
         is the residue of a crash (refuse with guidance, or clean up
         under --force) *)
      let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let close_probe () =
        try Unix.close probe with Unix.Unix_error _ -> ()
      in
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () ->
          close_probe ();
          io "a daemon is already listening on this socket"
      | exception Unix.Unix_error _ ->
          close_probe ();
          if force then (
            match Unix.unlink path with
            | () -> bind_fresh ()
            | exception Unix.Unix_error (e, _, _) ->
                io (Unix.error_message e))
          else
            io
              "stale socket file (no daemon is listening) — a previous \
               daemon crashed; remove the file or restart with --force")
  | _ -> io "path exists and is not a socket"

let listen_tcp ~host ~port =
  let addr =
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with Not_found -> Unix.inet_addr_of_string host
  in
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (addr, port));
  Unix.listen fd 64;
  fd

let request_stop t =
  if not (Atomic.exchange t.stopping true) then
    (* one byte on the self-pipe wakes the select loop *)
    try ignore (Unix.write t.stop_w (Bytes.of_string "x") 0 1)
    with Unix.Unix_error _ -> ()

let register_conn t fd thread =
  Mutex.lock t.conns_mutex;
  t.conns <- (fd, thread) :: t.conns;
  Mutex.unlock t.conns_mutex

let serve t listeners =
  (* a client hanging up mid-response must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let rec accept_loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select (t.stop_r :: listeners) [] [] (-1.0) with
      | readable, _, _ ->
          List.iter
            (fun fd ->
              if fd <> t.stop_r && not (Atomic.get t.stopping) then begin
                match Unix.accept fd with
                | client, _ ->
                    let thread =
                      Thread.create (fun () -> serve_connection t client) ()
                    in
                    register_conn t client thread
                | exception Unix.Unix_error _ -> ()
              end)
            readable
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  accept_loop ();
  (* graceful shutdown: stop accepting, finish what is in flight, then
     disconnect whoever is still connected *)
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) listeners;
  Scheduler.drain t.scheduler;
  Mutex.lock t.conns_mutex;
  let conns = t.conns in
  t.conns <- [];
  Mutex.unlock t.conns_mutex;
  List.iter
    (fun (fd, _) ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    conns;
  List.iter (fun (_, thread) -> Thread.join thread) conns
