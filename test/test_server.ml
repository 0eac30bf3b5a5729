(* The acqd query service, exercised in-process over Unix.socketpair:
   wire envelopes round-trip, daemon COUNTs match single-shot Api.run
   bit-for-bit per seed (for jobs 1, 2 and 4), the plan/result caches
   keep consistent counters and a result hit does no estimation work,
   admission control refuses (never hangs) beyond the queue bound, and
   the scheduler drains for graceful shutdown. *)

module Api = Approxcount.Api
module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Error = Ac_runtime.Error
module Json = Ac_analysis.Json
module Wire = Ac_server.Wire
module Cache = Ac_server.Cache
module Catalog = Ac_server.Catalog
module Scheduler = Ac_server.Scheduler
module Server = Ac_server.Server

let db () =
  let rng = Random.State.make [| 2022 |] in
  Ac_workload.Graph.to_structure
    (Ac_workload.Graph.random_gnp ~rng 24 0.25)

let queries =
  [
    "ans(x,y) :- E(x,y), x != y";
    "ans(x) :- E(x,y), E(y,z)";
    "ans(x,y) :- E(x,y), !E(y,x)";
  ]

(* ---------- wire envelopes ---------- *)

let roundtrip_request req =
  match Wire.request_of_json (Wire.request_to_json req) with
  | Ok req' -> req' = req
  | Error msg -> Alcotest.failf "request did not round-trip: %s" msg

let test_wire_request_roundtrip () =
  let db = Wire.Named "g" in
  List.iter
    (fun req ->
      Alcotest.(check bool) "request round-trips" true (roundtrip_request req))
    [
      Wire.Ping;
      Wire.Stats;
      Wire.Use "people";
      Wire.Count (Wire.params ~db "ans(x) :- E(x,y)");
      Wire.Count
        (Wire.params ~eps:0.5 ~delta:0.01 ~method_:Api.Fpras ~seed:7 ~jobs:4
           ~timeout_ms:250 ~max_heap_mb:64 ~strict:true ~db "ans(x) :- E(x,y)");
      Wire.Count (Wire.params ~db:(Wire.Inline "universe 2\nE 0 1\n") "q");
      Wire.Count (Wire.params ~db:Wire.Session "q");
      Wire.Sample { params = Wire.params ~seed:3 ~db "q"; draws = 5 };
    ]

let test_wire_estimate_bit_exact () =
  (* %.6g alone would lose bits; the hex side-channel must not *)
  List.iter
    (fun estimate ->
      let outcome =
        {
          Wire.estimate;
          exact = false;
          rung = Some "fptras/tree-dp";
          guarantee = true;
          degraded = false;
          attempts =
            [ { Wire.rung = "fpras"; error_class = "budget"; error_message = "m" } ];
          seed = 42;
          jobs = 2;
          ticks = 123;
          elapsed_ms = 1.5;
          trace = None;
          plan_cache = "miss";
          result_cache = "miss";
        }
      in
      match Wire.response_of_json (Wire.response_to_json (Wire.Counted outcome)) with
      | Ok (Wire.Counted o) ->
          Alcotest.(check bool)
            (Printf.sprintf "bits of %h survive" estimate)
            true
            (Int64.bits_of_float o.Wire.estimate
            = Int64.bits_of_float estimate);
          Alcotest.(check bool) "outcome round-trips" true (o = outcome)
      | Ok _ -> Alcotest.fail "wrong arm"
      | Error msg -> Alcotest.failf "response did not round-trip: %s" msg)
    [ 0.1 +. 0.2; 1.0 /. 3.0; 1e300; 280.0; 0.0 ]

let test_wire_refused_codes () =
  List.iter
    (fun err ->
      match Wire.response_of_json (Wire.response_to_json (Wire.response_of_error err)) with
      | Ok (Wire.Refused { code; error_class; _ }) ->
          Alcotest.(check int) "code is the exit code" (Error.exit_code err) code;
          Alcotest.(check string) "class" (Error.class_name err) error_class
      | Ok _ -> Alcotest.fail "not refused"
      | Error msg -> Alcotest.failf "round-trip: %s" msg)
    [
      Error.Parse { source = "q"; msg = "m" };
      Error.Io { file = "f"; msg = "m" };
      Error.Overloaded "m";
      Error.Internal "m";
    ]

(* ---------- an in-process daemon over socketpair ---------- *)

type client = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  thread : Thread.t;
}

let connect server =
  let client_fd, server_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let thread =
    Thread.create (fun () -> Server.serve_connection server server_fd) ()
  in
  {
    fd = client_fd;
    ic = Unix.in_channel_of_descr client_fd;
    oc = Unix.out_channel_of_descr client_fd;
    thread;
  }

let call client req =
  Wire.write_json client.oc (Wire.request_to_json req);
  match Wire.read_json client.ic with
  | Wire.Msg j -> (
      match Wire.response_of_json j with
      | Ok r -> r
      | Error msg -> Alcotest.failf "bad response: %s" msg)
  | Wire.Eof -> Alcotest.fail "server hung up"
  | Wire.Bad msg -> Alcotest.failf "unparseable response: %s" msg

let disconnect client =
  (try Unix.shutdown client.fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  Thread.join client.thread;
  try Unix.close client.fd with Unix.Unix_error _ -> ()

let with_server ?config f =
  let server = Server.create ?config () in
  ignore (Catalog.add (Server.catalog server) ~name:"g" (db ()));
  f server

let with_client ?config f =
  with_server ?config (fun server ->
      let client = connect server in
      Fun.protect ~finally:(fun () -> disconnect client) (fun () ->
          f server client))

let expect_counted = function
  | Wire.Counted o -> o
  | Wire.Refused { error_class; message; _ } ->
      Alcotest.failf "refused [%s]: %s" error_class message
  | _ -> Alcotest.fail "expected a COUNT response"

(* ---------- parity with the single-shot Api ---------- *)

let single_shot ?(method_ = Api.Auto) ~seed ~jobs query_text =
  let query = Result.get_ok (Ecq.parse_result query_text) in
  match
    Api.run
      Api.Request.(
        make query (db ()) |> with_method method_ |> with_seed (Some seed)
        |> with_jobs (Some jobs))
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "single-shot failed: %s" (Error.message e)

let test_count_matches_single_shot () =
  with_client (fun _server client ->
      ignore (call client (Wire.Use "g"));
      List.iter
        (fun query ->
          List.iter
            (fun jobs ->
              let seed = 1000 + (17 * jobs) in
              let expected = single_shot ~seed ~jobs query in
              let o =
                expect_counted
                  (call client
                     (Wire.Count
                        (Wire.params ~seed ~jobs ~db:Wire.Session query)))
              in
              Alcotest.(check bool)
                (Printf.sprintf "estimate bits (%s, jobs %d)" query jobs)
                true
                (Int64.bits_of_float o.Wire.estimate
                = Int64.bits_of_float expected.Api.estimate);
              Alcotest.(check (option string)) "rung"
                (Option.map Approxcount.Planner.rung_name expected.Api.rung)
                o.Wire.rung;
              Alcotest.(check bool) "degraded" expected.Api.degraded
                o.Wire.degraded;
              Alcotest.(check int) "degradation trail length"
                (List.length expected.Api.attempts)
                (List.length o.Wire.attempts);
              Alcotest.(check int) "seed echoed" seed o.Wire.seed)
            [ 1; 2; 4 ])
        queries)

(* ---------- cache semantics ---------- *)

let cache_counter server name field =
  match
    Option.bind (Json.mem name (Server.stats_json server)) (Json.mem field)
  with
  | Some (Json.Int v) -> v
  | _ -> Alcotest.failf "stats_json lacks %s.%s" name field

let test_result_cache_hit_skips_work () =
  with_client (fun server client ->
      ignore (call client (Wire.Use "g"));
      let params = Wire.params ~seed:5 ~db:Wire.Session (List.hd queries) in
      let cold = expect_counted (call client (Wire.Count params)) in
      Alcotest.(check string) "cold misses" "miss" cold.Wire.result_cache;
      Alcotest.(check bool) "cold did work" true (cold.Wire.ticks > 0);
      let hot = expect_counted (call client (Wire.Count params)) in
      Alcotest.(check string) "hot hits" "hit" hot.Wire.result_cache;
      Alcotest.(check int) "hot does no estimation work" 0 hot.Wire.ticks;
      Alcotest.(check bool) "same bits" true
        (Int64.bits_of_float cold.Wire.estimate
        = Int64.bits_of_float hot.Wire.estimate);
      (* same query, fresh seed: the plan is reusable, the result is not *)
      let fresh =
        expect_counted
          (call client
             (Wire.Count
                (Wire.params ~seed:6 ~db:Wire.Session (List.hd queries))))
      in
      Alcotest.(check string) "fresh seed misses results" "miss"
        fresh.Wire.result_cache;
      Alcotest.(check string) "fresh seed hits the plan" "hit"
        fresh.Wire.plan_cache;
      (* an unseeded request must bypass the result cache: its answer is
         not replayable, so caching it would be a lie *)
      let unseeded =
        expect_counted
          (call client
             (Wire.Count (Wire.params ~db:Wire.Session (List.hd queries))))
      in
      Alcotest.(check string) "unseeded bypasses" "bypass"
        unseeded.Wire.result_cache;
      Alcotest.(check int) "result hits" 1
        (cache_counter server "result_cache" "hits");
      Alcotest.(check int) "result misses" 2
        (cache_counter server "result_cache" "misses"))

let test_counters_consistent_under_concurrency () =
  let n_clients = 4 and m_requests = 5 in
  with_server (fun server ->
      let expected = Hashtbl.create 16 in
      List.iteri
        (fun qi query ->
          for k = 0 to 1 do
            let seed = 100 + (10 * qi) + k in
            Hashtbl.replace expected (query, seed)
              (single_shot ~seed ~jobs:1 query).Api.estimate
          done)
        queries;
      let failures = Atomic.make 0 in
      let worker ci =
        let client = connect server in
        Fun.protect ~finally:(fun () -> disconnect client) (fun () ->
            ignore (call client (Wire.Use "g"));
            for r = 0 to m_requests - 1 do
              let qi = (ci + r) mod List.length queries in
              let query = List.nth queries qi in
              let seed = 100 + (10 * qi) + (r mod 2) in
              let o =
                expect_counted
                  (call client
                     (Wire.Count (Wire.params ~seed ~db:Wire.Session query)))
              in
              if
                Int64.bits_of_float o.Wire.estimate
                <> Int64.bits_of_float (Hashtbl.find expected (query, seed))
              then Atomic.incr failures
            done)
      in
      let threads =
        List.init n_clients (fun ci -> Thread.create worker ci)
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "every concurrent response matches single-shot" 0
        (Atomic.get failures);
      let hits = cache_counter server "result_cache" "hits"
      and misses = cache_counter server "result_cache" "misses" in
      Alcotest.(check int) "every seeded COUNT consulted the result cache"
        (n_clients * m_requests)
        (hits + misses);
      (* the plan cache is consulted exactly on result misses that went
         on to compute — a miss that joined identical in-flight work
         (single-flight dedupe) never reaches the planner *)
      let followed = cache_counter server "inflight_dedup" "followed" in
      Alcotest.(check int) "plan lookups = computed result misses"
        (misses - followed)
        (cache_counter server "plan_cache" "hits"
        + cache_counter server "plan_cache" "misses"))

(* ---------- admission control ---------- *)

let test_overloaded_refusal () =
  let config = { Server.default_config with queue_capacity = 1 } in
  with_client ~config (fun server client ->
      ignore (call client (Wire.Use "g"));
      (* occupy the only slot with a request blocked on a latch *)
      let gate_m = Mutex.create () and gate_c = Condition.create () in
      let release = ref false and entered = ref false in
      let blocker =
        Thread.create
          (fun () ->
            ignore
              (Scheduler.submit (Server.scheduler server) ~label:"blocker"
                 (fun _slice ->
                   Mutex.lock gate_m;
                   entered := true;
                   Condition.broadcast gate_c;
                   while not !release do
                     Condition.wait gate_c gate_m
                   done;
                   Mutex.unlock gate_m)))
          ()
      in
      Mutex.lock gate_m;
      while not !entered do
        Condition.wait gate_c gate_m
      done;
      Mutex.unlock gate_m;
      (* the wire request beyond the bound is refused, not queued *)
      (match
         call client
           (Wire.Count (Wire.params ~seed:1 ~db:Wire.Session (List.hd queries)))
       with
      | Wire.Refused { code; error_class; _ } ->
          Alcotest.(check int) "overloaded exit code"
            (Error.exit_code (Error.Overloaded ""))
            code;
          Alcotest.(check string) "overloaded class" "overloaded" error_class
      | _ -> Alcotest.fail "over-capacity request was not refused");
      Mutex.lock gate_m;
      release := true;
      Condition.broadcast gate_c;
      Mutex.unlock gate_m;
      Thread.join blocker;
      (* with the slot free again the same request is admitted *)
      let o =
        expect_counted
          (call client
             (Wire.Count (Wire.params ~seed:1 ~db:Wire.Session (List.hd queries))))
      in
      Alcotest.(check bool) "admitted after release" true (o.Wire.seed = 1);
      (* a result-cache hit does no work, so it must bypass admission:
         refill the cache, block the slot again, and hit *)
      Mutex.lock gate_m;
      release := false;
      entered := false;
      Mutex.unlock gate_m;
      let blocker2 =
        Thread.create
          (fun () ->
            ignore
              (Scheduler.submit (Server.scheduler server) ~label:"blocker"
                 (fun _slice ->
                   Mutex.lock gate_m;
                   entered := true;
                   Condition.broadcast gate_c;
                   while not !release do
                     Condition.wait gate_c gate_m
                   done;
                   Mutex.unlock gate_m)))
          ()
      in
      Mutex.lock gate_m;
      while not !entered do
        Condition.wait gate_c gate_m
      done;
      Mutex.unlock gate_m;
      let hot =
        expect_counted
          (call client
             (Wire.Count (Wire.params ~seed:1 ~db:Wire.Session (List.hd queries))))
      in
      Alcotest.(check string) "cache hit served while saturated" "hit"
        hot.Wire.result_cache;
      Mutex.lock gate_m;
      release := true;
      Condition.broadcast gate_c;
      Mutex.unlock gate_m;
      Thread.join blocker2)

(* ---------- graceful-shutdown drain ---------- *)

let test_scheduler_drain () =
  let scheduler = Scheduler.create ~capacity:4 () in
  let gate_m = Mutex.create () and gate_c = Condition.create () in
  let release = ref false and entered = ref 0 in
  let workers =
    List.init 3 (fun _ ->
        Thread.create
          (fun () ->
            ignore
              (Scheduler.submit scheduler ~label:"w" (fun _slice ->
                   Mutex.lock gate_m;
                   incr entered;
                   Condition.broadcast gate_c;
                   while not !release do
                     Condition.wait gate_c gate_m
                   done;
                   Mutex.unlock gate_m)))
          ())
  in
  Mutex.lock gate_m;
  while !entered < 3 do
    Condition.wait gate_c gate_m
  done;
  Mutex.unlock gate_m;
  let drained = Atomic.make false in
  let drainer =
    Thread.create
      (fun () ->
        Scheduler.drain scheduler;
        Atomic.set drained true)
      ()
  in
  Thread.yield ();
  Alcotest.(check bool) "drain waits for in-flight work" false
    (Atomic.get drained);
  Mutex.lock gate_m;
  release := true;
  Condition.broadcast gate_c;
  Mutex.unlock gate_m;
  List.iter Thread.join workers;
  Thread.join drainer;
  Alcotest.(check bool) "drain returns once idle" true (Atomic.get drained);
  let s = Scheduler.stats scheduler in
  Alcotest.(check int) "all completed" 3 s.Scheduler.completed;
  Alcotest.(check int) "none in flight" 0 s.Scheduler.in_flight

(* ---------- service verbs and protocol resync ---------- *)

let test_verbs_and_resync () =
  with_client (fun _server client ->
      (match call client Wire.Ping with
      | Wire.Pong -> ()
      | _ -> Alcotest.fail "ping");
      (* USE of an unknown database is a typed refusal *)
      (match call client (Wire.Use "nope") with
      | Wire.Refused { error_class; _ } ->
          Alcotest.(check string) "unknown db is io" "io" error_class
      | _ -> Alcotest.fail "unknown USE accepted");
      (* COUNT without a session database is refused, not a crash *)
      (match
         call client (Wire.Count (Wire.params ~db:Wire.Session "ans(x) :- E(x,x)"))
       with
      | Wire.Refused { error_class; _ } ->
          Alcotest.(check string) "no session db is io" "io" error_class
      | _ -> Alcotest.fail "sessionless COUNT accepted");
      (* a garbage line gets a refusal and the stream stays usable *)
      output_string client.oc "this is not json\n";
      flush client.oc;
      (match Wire.read_json client.ic with
      | Wire.Msg j -> (
          match Wire.response_of_json j with
          | Ok (Wire.Refused { error_class; _ }) ->
              Alcotest.(check string) "garbage is parse" "parse" error_class
          | _ -> Alcotest.fail "garbage not refused")
      | _ -> Alcotest.fail "no response to garbage");
      (match call client (Wire.Use "g") with
      | Wire.Used { name; fingerprint; _ } ->
          Alcotest.(check string) "used g" "g" name;
          Alcotest.(check string) "fingerprint matches the structure"
            (Structure.fingerprint (db ()))
            fingerprint
      | _ -> Alcotest.fail "USE after garbage failed");
      (* a malformed query is a typed parse refusal over the wire *)
      match
        call client (Wire.Count (Wire.params ~db:Wire.Session "ans(x :- E("))
      with
      | Wire.Refused { code; error_class; _ } ->
          Alcotest.(check string) "query parse error class" "parse" error_class;
          Alcotest.(check int) "query parse exit code" 10 code
      | _ -> Alcotest.fail "malformed query accepted")

let test_inline_db () =
  with_client (fun _server client ->
      let inline = "universe 3\nE 0 1\nE 1 2\nE 2 0\n" in
      let o =
        expect_counted
          (call client
             (Wire.Count
                (Wire.params ~seed:9 ~method_:Api.Exact
                   ~db:(Wire.Inline inline) "ans(x,y) :- E(x,y)")))
      in
      Alcotest.(check bool) "exact" true o.Wire.exact;
      Alcotest.(check (float 0.0)) "count" 3.0 o.Wire.estimate;
      (* malformed inline text is a parse refusal *)
      match
        call client
          (Wire.Count (Wire.params ~db:(Wire.Inline "not a database") "q"))
      with
      | Wire.Refused { error_class; _ } ->
          Alcotest.(check string) "inline parse refusal" "parse" error_class
      | _ -> Alcotest.fail "garbled inline db accepted")

(* ---------- STATS request counters ---------- *)

(* STATS reports one count per verb plus the frames that did not decode,
   keyed in the protocol's verb order. The STATS request itself is
   counted before the reply is built. *)
let test_stats_request_counters () =
  with_client (fun _server client ->
      ignore
        (expect_counted
           (call client
              (Wire.Count
                 (Wire.params ~seed:3 ~db:(Wire.Named "g")
                    "ans(x,y) :- E(x,y), x != y"))));
      for _ = 1 to 2 do
        match call client Wire.Ping with
        | Wire.Pong -> ()
        | _ -> Alcotest.fail "ping"
      done;
      output_string client.oc "{\"verb\": \"no-such-verb\"}\n";
      flush client.oc;
      (match Wire.read_json client.ic with
      | Wire.Msg _ -> ()
      | _ -> Alcotest.fail "no response to the malformed frame");
      let requests =
        match call client Wire.Stats with
        | Wire.Stats_reply j -> (
            match Json.mem "requests" j with
            | Some (Json.Obj kvs) -> kvs
            | _ -> Alcotest.fail "STATS has no requests object")
        | _ -> Alcotest.fail "expected a STATS reply"
      in
      Alcotest.(check (list string)) "keys in verb order, then malformed"
        (List.map Wire.Verb.to_string Wire.Verb.all @ [ "malformed" ])
        (List.map fst requests);
      let count key =
        match List.assoc key requests with
        | Json.Int n -> n
        | _ -> Alcotest.failf "%s is not an integer" key
      in
      List.iter
        (fun (key, expected) -> Alcotest.(check int) key expected (count key))
        [
          ("count", 1); ("sample", 0); ("use", 0); ("ping", 2); ("stats", 1);
          ("health", 0); ("malformed", 1);
        ])

(* ---------- the LRU itself ---------- *)

let test_lru_eviction () =
  let lru = Cache.Lru.create ~capacity:2 () in
  Cache.Lru.add lru "a" 1;
  Cache.Lru.add lru "b" 2;
  ignore (Cache.Lru.find lru "a");
  Cache.Lru.add lru "c" 3;
  Alcotest.(check (option int)) "a kept (recently used)" (Some 1)
    (Cache.Lru.find lru "a");
  Alcotest.(check (option int)) "b evicted (least recently used)" None
    (Cache.Lru.find lru "b");
  Alcotest.(check (option int)) "c present" (Some 3) (Cache.Lru.find lru "c");
  let s = Cache.Lru.stats lru in
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check int) "length" 2 s.Cache.length;
  (* capacity 0 disables caching entirely *)
  let off = Cache.Lru.create ~capacity:0 () in
  Cache.Lru.add off "a" 1;
  Alcotest.(check (option int)) "disabled cache stores nothing" None
    (Cache.Lru.find off "a")

(* The policy [Cache.Lru] replaced: a monotone stamp per entry,
   refreshed on every hit and add, and eviction by a scan for the
   minimum stamp. Kept here as the reference the O(1) list must match. *)
module Stamp_lru = struct
  type t = {
    capacity : int;
    table : (string, int * int) Hashtbl.t; (* key -> (value, last use) *)
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
  }

  let create capacity =
    {
      capacity;
      table = Hashtbl.create 8;
      clock = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
    }

  let find t key =
    match Hashtbl.find_opt t.table key with
    | Some (v, _) ->
        t.clock <- t.clock + 1;
        Hashtbl.replace t.table key (v, t.clock);
        t.hits <- t.hits + 1;
        Some v
    | None ->
        t.misses <- t.misses + 1;
        None

  let add t key v =
    if t.capacity > 0 then begin
      t.clock <- t.clock + 1;
      if (not (Hashtbl.mem t.table key)) && Hashtbl.length t.table >= t.capacity
      then begin
        let victim, _ =
          Hashtbl.fold
            (fun k (_, stamp) (best, s) -> if stamp < s then (k, stamp) else (best, s))
            t.table ("", max_int)
        in
        Hashtbl.remove t.table victim;
        t.evictions <- t.evictions + 1
      end;
      Hashtbl.replace t.table key (v, t.clock)
    end
end

let prop_lru_matches_stamp_scan =
  let open QCheck2.Gen in
  let op =
    pair bool (pair (int_range 0 5) (int_range 0 99)) >|= fun (is_find, (k, v)) ->
    ((if is_find then `Find else `Add), Printf.sprintf "k%d" k, v)
  in
  QCheck2.Test.make ~count:300 ~name:"lru: O(1) list = stamp-scan reference"
    (pair (int_range 0 4) (list_size (int_range 0 60) op))
    (fun (capacity, ops) ->
      (* the named counters are process-wide: compare deltas *)
      let counters () =
        List.map
          (fun name ->
            Ac_obs.Metrics.counter_value
              (Ac_obs.Metrics.counter Ac_obs.Metrics.global name
                 ~labels:[ ("cache", "lru_model_test") ]))
          [ "acq_cache_hits_total"; "acq_cache_misses_total"; "acq_cache_evictions_total" ]
      in
      let before = counters () in
      let lru = Cache.Lru.create ~name:"lru_model_test" ~capacity () in
      let model = Stamp_lru.create capacity in
      let same_finds =
        List.for_all
          (fun (kind, key, v) ->
            match kind with
            | `Find -> Cache.Lru.find lru key = Stamp_lru.find model key
            | `Add ->
                Cache.Lru.add lru key v;
                Stamp_lru.add model key v;
                true)
          ops
      in
      let s = Cache.Lru.stats lru in
      let after = counters () in
      let counts = [ model.hits; model.misses; model.evictions ] in
      same_finds
      && s.Cache.length = Hashtbl.length model.table
      && [ s.Cache.hits; s.Cache.misses; s.Cache.evictions ] = counts
      && ((not (Ac_obs.Metrics.enabled ()))
         || List.map2 ( - ) after before = counts))

let tests =
  [
    Alcotest.test_case "wire: requests round-trip" `Quick
      test_wire_request_roundtrip;
    Alcotest.test_case "wire: estimates are bit-exact" `Quick
      test_wire_estimate_bit_exact;
    Alcotest.test_case "wire: refusals carry exit codes" `Quick
      test_wire_refused_codes;
    Alcotest.test_case "lru: eviction order and disabling" `Quick
      test_lru_eviction;
    QCheck_alcotest.to_alcotest prop_lru_matches_stamp_scan;
    Alcotest.test_case "count = single-shot, bit for bit (jobs 1/2/4)" `Slow
      test_count_matches_single_shot;
    Alcotest.test_case "result cache: hit skips estimation" `Quick
      test_result_cache_hit_skips_work;
    Alcotest.test_case "cache counters consistent under concurrency" `Slow
      test_counters_consistent_under_concurrency;
    Alcotest.test_case "admission: overloaded refusal, never a hang" `Quick
      test_overloaded_refusal;
    Alcotest.test_case "scheduler: drain waits then returns" `Quick
      test_scheduler_drain;
    Alcotest.test_case "verbs, refusals and protocol resync" `Quick
      test_verbs_and_resync;
    Alcotest.test_case "inline databases" `Quick test_inline_db;
    Alcotest.test_case "STATS counts requests per verb" `Quick
      test_stats_request_counters;
  ]
