(* The sharded fleet: partition soundness (split invariants, shardable
   detection), the router's scatter-gather COUNT (sharded exact equals
   single-node, estimates bit-reproducible for fixed seed and shard
   count, cross-shard fallback, worker crash degrading — never
   hanging — and restart recovery over the LOAD re-push), the closed
   Wire.Verb codec, the unified client policy surface, the Api.Request
   builder, and per-tenant admission quotas. *)

module Api = Approxcount.Api
module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Relation = Ac_relational.Relation
module Error = Ac_runtime.Error
module Wire = Ac_server.Wire
module Catalog = Ac_server.Catalog
module Scheduler = Ac_server.Scheduler
module Server = Ac_server.Server
module Client = Ac_server.Client
module Retry_policy = Ac_server.Retry_policy
module Partition = Ac_server.Partition
module Router = Ac_server.Router

(* workers and the router run in this process: a peer hanging up
   mid-write must fail the write, not kill the test binary *)
let () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let tmp_path suffix =
  let f = Filename.temp_file "acq_fleet" suffix in
  Sys.remove f;
  f

let bits_equal a b = Int64.bits_of_float a = Int64.bits_of_float b

let has_prefix prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ---------- in-process workers on real unix sockets ---------- *)

type worker = { wserver : Server.t; wthread : Thread.t; wpath : string }

let start_worker path =
  let server = Server.create () in
  match Server.listen_unix ~force:true ~path () with
  | Error e -> Alcotest.failf "worker listen: %s" (Error.message e)
  | Ok fd ->
      let thread = Thread.create (fun () -> Server.serve server [ fd ]) () in
      { wserver = server; wthread = thread; wpath = path }

let stop_worker w =
  Server.request_stop w.wserver;
  Thread.join w.wthread;
  try Sys.remove w.wpath with Sys_error _ -> ()

(* fast backoff so dead-worker scenarios stay quick *)
let test_policy =
  { Retry_policy.default with backoff_base_ms = 1.0; backoff_cap_ms = 5.0 }

let with_fleet ?(shards = 2) ?(column = 0) f =
  let paths =
    List.init shards (fun i -> tmp_path (Printf.sprintf "-w%d.sock" i))
  in
  let workers = Array.of_list (List.map start_worker paths) in
  let router =
    Router.create ~policy:test_policy ~strategy:Partition.Hash ~column
      (List.map (fun p -> Client.Unix_socket p) paths)
  in
  let config = { Server.default_config with result_cache_capacity = 0 } in
  let server = Server.create ~router ~config () in
  Fun.protect
    ~finally:(fun () ->
      Router.close router;
      (* iterate the array: a test that restarted a worker in place
         (crash/recovery) swapped the record it wants stopped *)
      Array.iter stop_worker workers)
    (fun () -> f server router workers)

let fleet_load server router ~name db =
  ignore (Catalog.add (Server.catalog server) ~name db);
  match Router.distribute router ~name db with
  | Ok sizes -> sizes
  | Error e -> Alcotest.failf "distribute %s: %s" name (Error.message e)

(* router served over a socketpair, as in test_server/test_fault *)
type raw = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  thread : Thread.t;
}

let connect_raw server =
  let client_fd, server_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let thread =
    Thread.create (fun () -> Server.serve_connection server server_fd) ()
  in
  {
    fd = client_fd;
    ic = Unix.in_channel_of_descr client_fd;
    oc = Unix.out_channel_of_descr client_fd;
    thread;
  }

let call_raw client req =
  Wire.write_json client.oc (Wire.request_to_json req);
  match Wire.read_json client.ic with
  | Wire.Msg j -> (
      match Wire.response_of_json j with
      | Ok r -> r
      | Error msg -> Alcotest.failf "bad response: %s" msg)
  | Wire.Eof -> Alcotest.fail "server hung up"
  | Wire.Bad msg -> Alcotest.failf "unparseable response: %s" msg

let disconnect_raw client =
  (try Unix.shutdown client.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
  Thread.join client.thread;
  try Unix.close client.fd with Unix.Unix_error _ -> ()

let expect_counted = function
  | Wire.Counted o -> o
  | Wire.Refused { error_class; message; _ } ->
      Alcotest.failf "refused [%s]: %s" error_class message
  | _ -> Alcotest.fail "expected a COUNT response"

let fleet_count conn ?method_ ?(eps = 0.5) ?(delta = 0.25) ~seed ~name q =
  expect_counted
    (call_raw conn
       (Wire.Count (Wire.params ?method_ ~eps ~delta ~seed ~db:(Wire.Named name) q)))

(* ---------- fixtures ---------- *)

let random_db rand ?(universe = 8) ?(edges = 18) () =
  let s = Structure.create ~universe_size:universe in
  Structure.declare s "E" ~arity:2;
  Structure.declare s "R" ~arity:2;
  Structure.declare s "P" ~arity:1;
  let v () = Random.State.int rand universe in
  for _ = 1 to edges do
    Structure.add_fact s "E" [| v (); v () |]
  done;
  for _ = 1 to edges / 2 do
    Structure.add_fact s "R" [| v (); v () |]
  done;
  for _ = 1 to 3 do
    Structure.add_fact s "P" [| v () |]
  done;
  s

(* a query shardable on column 0 by construction: the free variable 0
   sits at column 0 of every predicate atom *)
let star_query rand =
  let k = 1 + Random.State.int rand 3 in
  let atoms = List.init k (fun i -> Ecq.Atom ("E", [| 0; i + 1 |])) in
  let neg =
    if Random.State.bool rand then
      [ Ecq.Neg_atom ("R", [| 0; 1 + Random.State.int rand k |]) ]
    else []
  in
  let diseqs =
    if k >= 2 && Random.State.bool rand then [ Ecq.Diseq (1, 2) ] else []
  in
  let num_free = 1 + Random.State.int rand (k + 1) in
  Ecq.make ~num_free ~num_vars:(k + 1) (atoms @ neg @ diseqs)

let local_exact q db =
  match
    Api.run
      Api.Request.(
        make q db |> with_method Api.Exact |> with_seed (Some 1) |> with_jobs (Some 1))
  with
  | Ok r -> r.Api.estimate
  | Error e -> Alcotest.failf "local exact failed: %s" (Error.message e)

(* ---------- the closed verb alphabet ---------- *)

let prop_verb_roundtrip =
  QCheck2.Test.make ~count:200 ~name:"Wire.Verb codec is total and injective"
    (QCheck2.Gen.oneofl Wire.Verb.all)
    (fun v ->
      match Wire.Verb.of_string (Wire.Verb.to_string v) with
      | Some v' -> v' = v
      | None -> false)

let test_verb_alphabet () =
  Alcotest.(check int) "11 verbs" 11 (List.length Wire.Verb.all);
  let names = List.map Wire.Verb.to_string Wire.Verb.all in
  Alcotest.(check int) "names are distinct"
    (List.length names)
    (List.length (List.sort_uniq compare names));
  Alcotest.(check bool) "off-alphabet is None" true
    (Wire.Verb.of_string "EXPLODE" = None);
  (* LOAD is idempotent (safe to resend after a transport fault) *)
  Alcotest.(check bool) "LOAD idempotent" true
    (Wire.idempotent (Wire.Load { name = "g"; text = "universe 1\n" }))

(* ---------- partition invariants ---------- *)

let test_partition_spec_codec () =
  List.iter
    (fun (s, expect) ->
      match Partition.spec_of_string s with
      | Ok spec ->
          Alcotest.(check string)
            (Printf.sprintf "spec %S" s)
            expect
            (Partition.spec_to_string spec)
      | Error msg -> Alcotest.failf "spec %S rejected: %s" s msg)
    [
      ("hash", "hash:0:1");
      ("range:2", "range:2:1");
      ("hash:1:4", "hash:1:4");
    ];
  (match Partition.spec_of_string "mod:0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown strategy accepted");
  match Partition.spec_of_string "hash:-1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative column accepted"

let test_partition_invariants () =
  let rand = Random.State.make [| 71 |] in
  for _ = 1 to 25 do
    let db = random_db rand () in
    let universe = Structure.universe_size db in
    let strategy =
      if Random.State.bool rand then Partition.Hash else Partition.Range
    in
    let column = Random.State.int rand 2 in
    let shards = 1 + Random.State.int rand 3 in
    let spec = Partition.make ~strategy ~column ~shards in
    let parts = Partition.split spec db in
    Alcotest.(check int) "one structure per shard" shards (Array.length parts);
    Array.iter
      (fun p ->
        Alcotest.(check int) "full universe" universe (Structure.universe_size p);
        Alcotest.(check (list string))
          "full signature" (Structure.symbols db) (Structure.symbols p))
      parts;
    List.iter
      (fun sym ->
        let original =
          List.sort compare (Relation.to_list (Structure.relation db sym))
        in
        if Structure.arity_of db sym <= column then
          (* narrow relations are replicated to every shard *)
          Array.iter
            (fun p ->
              Alcotest.(check bool) (sym ^ " replicated") true
                (List.sort compare (Relation.to_list (Structure.relation p sym))
                = original))
            parts
        else begin
          (* each fact lives in exactly the shard shard_of assigns *)
          Array.iteri
            (fun i p ->
              Relation.iter
                (fun tuple ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s fact routed by column %d" sym column)
                    (Partition.shard_of spec ~universe_size:universe
                       tuple.(column))
                    i)
                (Structure.relation p sym))
            parts;
          (* and the union of the shards is the original, exactly *)
          let reunited =
            Array.to_list parts
            |> List.concat_map (fun p ->
                   Relation.to_list (Structure.relation p sym))
            |> List.sort compare
          in
          Alcotest.(check bool) (sym ^ " facts partitioned") true
            (reunited = original)
        end)
      (Structure.symbols db);
    (* shard_of is total on [0, shards) *)
    for v = 0 to universe - 1 do
      let s = Partition.shard_of spec ~universe_size:universe v in
      Alcotest.(check bool) "shard_of in range" true (s >= 0 && s < shards)
    done
  done

let test_shardable_detection () =
  let spec0 = Partition.make ~strategy:Partition.Hash ~column:0 ~shards:2 in
  let spec1 = Partition.make ~strategy:Partition.Hash ~column:1 ~shards:2 in
  let ok spec q =
    match Partition.shardable spec (Ecq.parse q) with
    | Ok x -> x
    | Error msg -> Alcotest.failf "%S should shard: %s" q msg
  in
  let rejected spec q =
    match Partition.shardable spec (Ecq.parse q) with
    | Error _ -> ()
    | Ok x -> Alcotest.failf "%S should not shard (got var %d)" q x
  in
  Alcotest.(check int) "star on x" 0
    (ok spec0 "ans(x,y,z) :- E(x,y), E(x,z), y != z");
  Alcotest.(check int) "anchored negation" 0
    (ok spec0 "ans(x,y) :- E(x,y), !R(x,y)");
  Alcotest.(check int) "column 1 anchor" 0
    (ok spec1 "ans(x,y) :- E(y,x), R(z,x)");
  (* the path query crosses shard boundaries: y at column 0 of E(y,z) *)
  rejected spec0 "ans(x,y) :- E(x,y), E(y,z), x != z";
  (* an unanchored negation could hold in one shard and fail globally *)
  rejected spec0 "ans(x,y) :- E(x,y), !R(y,x)";
  (* the anchor must be free, or answers repeat across shards *)
  rejected spec0 "ans(y) :- E(x,y), E(x,z)";
  (* no positive atom pins a shard *)
  match
    Partition.shardable spec0
      (Ecq.make ~num_free:1 ~num_vars:1 [ Ecq.Neg_atom ("P", [| 0 |]) ])
  with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "all-negative query accepted"

(* ---------- differential: sharded exact = single-node ---------- *)

let test_sharded_exact_matches_single () =
  let rand = Random.State.make [| 2026 |] in
  with_fleet ~shards:2 (fun server router _workers ->
      let conn = connect_raw server in
      Fun.protect
        ~finally:(fun () -> disconnect_raw conn)
        (fun () ->
          for case = 0 to 14 do
            let q = star_query rand in
            let db = random_db rand () in
            let name = Printf.sprintf "g%d" case in
            let sizes = fleet_load server router ~name db in
            Alcotest.(check int) "one shard per worker" 2 (Array.length sizes);
            (match Router.plan router q with
            | Ok _ -> ()
            | Error msg -> Alcotest.failf "star query not shardable: %s" msg);
            let expected = local_exact q db in
            let o =
              fleet_count conn ~method_:Api.Exact ~seed:1 ~name (Ecq.to_string q)
            in
            Alcotest.(check bool) "exact" true o.Wire.exact;
            Alcotest.(check bool) "not degraded" false o.Wire.degraded;
            Alcotest.(check (float 0.0))
              (Printf.sprintf "case %d: sharded exact = single-node" case)
              expected o.Wire.estimate
          done))

(* ---------- reproducibility: fixed seed + shard count ---------- *)

let estimate_query = "ans(x,y,z) :- E(x,y), E(x,z), y != z"

let estimate_db () =
  let rand = Random.State.make [| 909 |] in
  random_db rand ~universe:24 ~edges:140 ()

let run_estimate server router =
  ignore router;
  let conn = connect_raw server in
  Fun.protect
    ~finally:(fun () -> disconnect_raw conn)
    (fun () -> fleet_count conn ~seed:123 ~name:"g" estimate_query)

let test_sharded_estimate_reproducible () =
  let first =
    with_fleet ~shards:2 (fun server router _ ->
        ignore (fleet_load server router ~name:"g" (estimate_db ()));
        let o1 = run_estimate server router in
        let o2 = run_estimate server router in
        Alcotest.(check bool) "same fleet, same bits" true
          (bits_equal o1.Wire.estimate o2.Wire.estimate);
        Alcotest.(check int) "seed is the replay handle" 123 o1.Wire.seed;
        Alcotest.(check bool) "not degraded" false o1.Wire.degraded;
        o1.Wire.estimate)
  in
  (* a brand-new fleet with the same shard count reproduces the bits:
     the run is a function of (root seed, shard count) alone *)
  let second =
    with_fleet ~shards:2 (fun server router _ ->
        ignore (fleet_load server router ~name:"g" (estimate_db ()));
        (run_estimate server router).Wire.estimate)
  in
  Alcotest.(check bool) "fresh fleet, same bits" true (bits_equal first second)

(* ---------- cross-shard fallback ---------- *)

let test_cross_shard_fallback () =
  let rand = Random.State.make [| 313 |] in
  let db = random_db rand ~universe:10 ~edges:30 () in
  let path_query = "ans(x,y) :- E(x,y), E(y,z), x != z" in
  with_fleet ~shards:2 (fun server router _ ->
      ignore (fleet_load server router ~name:"g" db);
      (match Router.plan router (Ecq.parse path_query) with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "path query misclassified as shardable");
      let conn = connect_raw server in
      Fun.protect
        ~finally:(fun () -> disconnect_raw conn)
        (fun () ->
          (* the fallback is plain local execution: bit-identical to a
             router-less server answering the same seeded request *)
          let o = fleet_count conn ~seed:55 ~name:"g" path_query in
          let plain = Server.create () in
          ignore (Catalog.add (Server.catalog plain) ~name:"g" db);
          let pconn = connect_raw plain in
          let expected =
            Fun.protect
              ~finally:(fun () -> disconnect_raw pconn)
              (fun () -> fleet_count pconn ~seed:55 ~name:"g" path_query)
          in
          Alcotest.(check bool) "fallback = local bits" true
            (bits_equal expected.Wire.estimate o.Wire.estimate);
          Alcotest.(check bool) "not degraded" false o.Wire.degraded;
          (* a database never distributed also answers locally *)
          let rand2 = Random.State.make [| 314 |] in
          let other = random_db rand2 () in
          ignore (Catalog.add (Server.catalog server) ~name:"undistributed" other);
          let o2 =
            fleet_count conn ~method_:Api.Exact ~seed:1 ~name:"undistributed"
              estimate_query
          in
          Alcotest.(check (float 0.0)) "undistributed db runs locally"
            (local_exact (Ecq.parse estimate_query) other)
            o2.Wire.estimate))

(* ---------- worker crash: typed degradation, then recovery ---------- *)

let test_worker_crash_degrades () =
  let rand = Random.State.make [| 414 |] in
  let db = random_db rand ~universe:10 ~edges:30 () in
  with_fleet ~shards:2 (fun server router workers ->
      ignore (fleet_load server router ~name:"g" db);
      let conn = connect_raw server in
      Fun.protect
        ~finally:(fun () -> disconnect_raw conn)
        (fun () ->
          let q = estimate_query in
          let healthy = fleet_count conn ~method_:Api.Exact ~seed:1 ~name:"g" q in
          Alcotest.(check bool) "healthy fleet" false healthy.Wire.degraded;
          stop_worker workers.(1);
          (* the dead shard becomes an attempt entry on a degraded
             answer — a partial failure is typed, never a hang *)
          let o = fleet_count conn ~method_:Api.Exact ~seed:1 ~name:"g" q in
          Alcotest.(check bool) "degraded" true o.Wire.degraded;
          Alcotest.(check bool) "no guarantee" false o.Wire.guarantee;
          Alcotest.(check bool) "dead shard named in attempts" true
            (List.exists
               (fun (a : Wire.attempt) -> has_prefix "shard:" a.Wire.rung)
               o.Wire.attempts);
          Alcotest.(check bool) "surviving shards still sum" true
            (o.Wire.estimate <= healthy.Wire.estimate);
          (* restart: a fresh worker on the same address has an empty
             catalog; the router re-pushes the cached shard text on the
             unknown-database refusal and the fleet heals *)
          workers.(1) <- start_worker workers.(1).wpath;
          let back = fleet_count conn ~method_:Api.Exact ~seed:1 ~name:"g" q in
          Alcotest.(check bool) "recovered" false back.Wire.degraded;
          Alcotest.(check (float 0.0)) "recovered bits"
            healthy.Wire.estimate back.Wire.estimate))

(* ---------- unified client surface ---------- *)

let test_retry_policy_surface () =
  Alcotest.(check bool) "none is plain" false (Retry_policy.retrying Retry_policy.none);
  Alcotest.(check bool) "default retries" true
    (Retry_policy.retrying Retry_policy.default);
  Alcotest.(check int) "default attempts" 4 Retry_policy.default.Retry_policy.attempts;
  (* a one-attempt policy with a deadline still needs the durable call
     path, or the deadline would silently be dropped *)
  Alcotest.(check bool) "deadline engages" true
    (Retry_policy.retrying
       { Retry_policy.none with deadline_ms = Some 100 });
  Alcotest.(check bool) "read timeout engages" true
    (Retry_policy.retrying
       { Retry_policy.none with read_timeout_ms = Some 100 })

let test_policy_none_matches_plain () =
  let path = tmp_path ".sock" in
  let w = start_worker path in
  let rand = Random.State.make [| 515 |] in
  let db = random_db rand () in
  ignore (Catalog.add (Server.catalog w.wserver) ~name:"g" db);
  Fun.protect
    ~finally:(fun () -> stop_worker w)
    (fun () ->
      let count policy =
        let client =
          match Client.connect ?policy (Client.Unix_socket path) with
          | Ok c -> c
          | Error e -> Alcotest.failf "connect: %s" (Error.message e)
        in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            match
              Client.call client
                (Wire.Count
                   (Wire.params ~method_:Api.Exact ~seed:1
                      ~db:(Wire.Named "g") estimate_query))
            with
            | Ok (Wire.Counted o) -> o.Wire.estimate
            | Ok _ -> Alcotest.fail "expected a COUNT response"
            | Error e -> Alcotest.failf "call: %s" (Error.message e))
      in
      let plain = count None in
      let policied = count (Some test_policy) in
      Alcotest.(check (float 0.0)) "one surface, same answer" plain policied)

(* ---------- the Api.Request builder ---------- *)

let test_request_builder_equiv () =
  let rand = Random.State.make [| 616 |] in
  let q = Ecq.parse estimate_query in
  let db = random_db rand ~universe:16 ~edges:60 () in
  (* the builder's defaults are the documented ones *)
  let via_constructor =
    {
      Api.query = q;
      db;
      eps = 0.5;
      delta = 0.25;
      method_ = Api.Auto;
      seed = Some 9;
      jobs = Some 1;
      budget = None;
      strict = false;
      verbose = false;
      chaos = None;
      trace = None;
    }
  in
  let via_builder =
    Api.Request.make q db
    |> Api.Request.with_eps 0.5
    |> Api.Request.with_delta 0.25
    |> Api.Request.with_seed (Some 9)
    |> Api.Request.with_jobs (Some 1)
  in
  match (Api.run via_constructor, Api.run via_builder) with
  | Ok a, Ok b ->
      Alcotest.(check bool) "builder = constructor, bit-identical" true
        (bits_equal a.Api.estimate b.Api.estimate)
  | Error e, _ | _, Error e ->
      Alcotest.failf "request failed: %s" (Error.message e)

(* ---------- per-tenant quotas ---------- *)

let test_tenant_quota () =
  let s = Scheduler.create ~capacity:4 ~tenant_quota:1 () in
  let m = Mutex.create () and c = Condition.create () in
  let started = ref false and release = ref false in
  let holder =
    Thread.create
      (fun () ->
        ignore
          (Scheduler.submit s ~label:"hold" ~tenant:"noisy" (fun _ ->
               Mutex.lock m;
               started := true;
               Condition.broadcast c;
               while not !release do
                 Condition.wait c m
               done;
               Mutex.unlock m)))
      ()
  in
  Mutex.lock m;
  while not !started do
    Condition.wait c m
  done;
  Mutex.unlock m;
  (match Scheduler.submit s ~label:"burst" ~tenant:"noisy" (fun _ -> ()) with
  | Error (Error.Overloaded _) -> ()
  | Ok _ -> Alcotest.fail "tenant quota not enforced"
  | Error e -> Alcotest.failf "wrong class: %s" (Error.class_name e));
  (match Scheduler.submit s ~label:"other" ~tenant:"quiet" (fun _ -> ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "other tenant rejected: %s" (Error.message e));
  (match Scheduler.submit s ~label:"anon" (fun _ -> ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "anonymous rejected: %s" (Error.message e));
  Mutex.lock m;
  release := true;
  Condition.broadcast c;
  Mutex.unlock m;
  Thread.join holder;
  let st = Scheduler.stats s in
  Alcotest.(check int) "one tenant rejection" 1 st.Scheduler.tenant_rejected;
  Alcotest.(check int) "admitted the rest" 3 st.Scheduler.admitted

let tests =
  [
    QCheck_alcotest.to_alcotest prop_verb_roundtrip;
    Alcotest.test_case "verb alphabet is closed" `Quick test_verb_alphabet;
    Alcotest.test_case "partition spec codec" `Quick test_partition_spec_codec;
    Alcotest.test_case "partition invariants" `Quick test_partition_invariants;
    Alcotest.test_case "shardable detection" `Quick test_shardable_detection;
    Alcotest.test_case "sharded exact = single-node" `Quick
      test_sharded_exact_matches_single;
    Alcotest.test_case "estimates reproducible per (seed, shards)" `Quick
      test_sharded_estimate_reproducible;
    Alcotest.test_case "cross-shard fallback is local" `Quick
      test_cross_shard_fallback;
    Alcotest.test_case "worker crash degrades, restart heals" `Quick
      test_worker_crash_degrades;
    Alcotest.test_case "retry policy surface" `Quick test_retry_policy_surface;
    Alcotest.test_case "policy-less client unchanged" `Quick
      test_policy_none_matches_plain;
    Alcotest.test_case "Api.Request builder" `Quick test_request_builder_equiv;
    Alcotest.test_case "per-tenant quotas" `Quick test_tenant_quota;
  ]
