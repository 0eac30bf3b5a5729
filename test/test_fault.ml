(* The fault-tolerant service layer: wire-level chaos (every fault
   class of the proxy's vocabulary), the retrying client (bit-identical
   retried answers, zero duplicate budget spend, typed refusal of
   unsafe retries), deadline shedding, the HEALTH verb, the crash-safe
   catalog manifest, and stale-socket detection. *)

module Api = Approxcount.Api
module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Structure_io = Ac_relational.Structure_io
module Error = Ac_runtime.Error
module Chaos = Ac_runtime.Chaos
module Json = Ac_analysis.Json
module Wire = Ac_server.Wire
module Catalog = Ac_server.Catalog
module Scheduler = Ac_server.Scheduler
module Server = Ac_server.Server
module Client = Ac_server.Client
module Inflight = Ac_server.Inflight
module Manifest = Ac_server.Manifest
module Chaos_proxy = Ac_test_support.Chaos_proxy
module Live = Ac_live.Live
module Journal = Ac_live.Journal

(* the proxy and client run in this process: a peer hanging up
   mid-write must fail the write, not kill the test binary *)
let () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let db () =
  let rng = Random.State.make [| 2022 |] in
  Ac_workload.Graph.to_structure
    (Ac_workload.Graph.random_gnp ~rng 24 0.25)

let query = "ans(x) :- E(x,y), E(y,z)"

let single_shot ~seed query_text =
  let q = Result.get_ok (Ecq.parse_result query_text) in
  match Api.run
         Api.Request.(make q (db ()) |> with_seed (Some seed) |> with_jobs (Some 1)) with
  | Ok r -> r
  | Error e -> Alcotest.failf "single-shot failed: %s" (Error.message e)

let with_server ?config f =
  let server = Server.create ?config () in
  ignore (Catalog.add (Server.catalog server) ~name:"g" (db ()));
  f server

(* in-process daemon over socketpair (no retry layer), as in
   test_server — for the server-side features *)
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

let tmp_path suffix =
  let f = Filename.temp_file "acq_fault" suffix in
  Sys.remove f;
  f

(* ---------- wire surface ---------- *)

let test_wire_health_and_ids () =
  (* HEALTH round-trips *)
  (match Wire.request_of_json (Wire.request_to_json Wire.Health) with
  | Ok Wire.Health -> ()
  | _ -> Alcotest.fail "HEALTH request did not round-trip");
  let h =
    {
      Wire.ready = true;
      live = true;
      draining = false;
      in_flight = 2;
      queue_capacity = 64;
      catalog_entries = 3;
      recovered = true;
      uptime_ms = 12.5;
    }
  in
  (match
     Wire.response_of_json (Wire.response_to_json (Wire.Health_reply h))
   with
  | Ok (Wire.Health_reply h') ->
      Alcotest.(check bool) "health round-trips" true (h = h')
  | _ -> Alcotest.fail "HEALTH reply did not round-trip");
  (* envelope ids survive encoding and are extractable *)
  let j = Wire.request_to_json ~id:"abc123" Wire.Ping in
  Alcotest.(check (option string)) "request id" (Some "abc123") (Wire.json_id j);
  let r = Wire.response_to_json ~id:"abc123" Wire.Pong in
  Alcotest.(check (option string)) "response id" (Some "abc123") (Wire.json_id r);
  Alcotest.(check (option string)) "absent id" None
    (Wire.json_id (Wire.request_to_json Wire.Ping));
  (* an id-free message still decodes (additive evolution) *)
  (match Wire.response_of_json r with
  | Ok Wire.Pong -> ()
  | _ -> Alcotest.fail "id-carrying response did not decode");
  (* deadline_ms rides the params *)
  let p = Wire.params ~deadline_ms:250 ~db:(Wire.Named "g") query in
  (match Wire.request_of_json (Wire.request_to_json (Wire.Count p)) with
  | Ok (Wire.Count p') ->
      Alcotest.(check (option int)) "deadline_ms" (Some 250) p'.Wire.deadline_ms
  | _ -> Alcotest.fail "deadline params did not round-trip");
  (* the idempotency contract *)
  List.iter
    (fun (req, expected) ->
      Alcotest.(check bool)
        (Printf.sprintf "idempotent %s" (Wire.verb_name req))
        expected (Wire.idempotent req))
    [
      (Wire.Ping, true);
      (Wire.Health, true);
      (Wire.Stats, true);
      (Wire.Use "g", true);
      (Wire.Count (Wire.params ~seed:1 ~db:(Wire.Named "g") query), true);
      (Wire.Count (Wire.params ~db:(Wire.Named "g") query), false);
      ( Wire.Sample
          { params = Wire.params ~db:(Wire.Named "g") query; draws = 1 },
        false );
    ]

(* ---------- deadline shedding and HEALTH ---------- *)

let test_deadline_shed () =
  with_server (fun server ->
      let client = connect_raw server in
      Fun.protect ~finally:(fun () -> disconnect_raw client) (fun () ->
          match
            call_raw client
              (Wire.Count
                 (Wire.params ~seed:5 ~deadline_ms:0 ~db:(Wire.Named "g") query))
          with
          | Wire.Refused { code; error_class; _ } ->
              Alcotest.(check int) "deadline exit code" 18 code;
              Alcotest.(check string) "deadline class" "deadline" error_class;
              let s = Scheduler.stats (Server.scheduler server) in
              Alcotest.(check int) "shed counted" 1 s.Scheduler.deadline_shed;
              Alcotest.(check int) "nothing admitted" 0 s.Scheduler.admitted
          | _ -> Alcotest.fail "expected a deadline refusal"))

let test_health_verb () =
  with_server (fun server ->
      let client = connect_raw server in
      Fun.protect ~finally:(fun () -> disconnect_raw client) (fun () ->
          match call_raw client Wire.Health with
          | Wire.Health_reply h ->
              Alcotest.(check bool) "ready" true h.Wire.ready;
              Alcotest.(check bool) "live" true h.Wire.live;
              Alcotest.(check bool) "not draining" false h.Wire.draining;
              Alcotest.(check int) "queue capacity" 64 h.Wire.queue_capacity;
              Alcotest.(check int) "catalog entries" 1 h.Wire.catalog_entries;
              Alcotest.(check bool) "not recovered" false h.Wire.recovered;
              Alcotest.(check bool) "uptime sane" true (h.Wire.uptime_ms >= 0.0)
          | _ -> Alcotest.fail "expected a HEALTH reply"))

(* ---------- single-flight dedupe ---------- *)

let test_inflight_single_flight () =
  let table : int Inflight.t = Inflight.create () in
  let gate_m = Mutex.create () and gate_c = Condition.create () in
  let release = ref false and computed = ref 0 in
  let leader_entered = Mutex.create () and entered_c = Condition.create () in
  let entered = ref false in
  let compute () =
    Mutex.lock leader_entered;
    entered := true;
    Condition.broadcast entered_c;
    Mutex.unlock leader_entered;
    Mutex.lock gate_m;
    while not !release do
      Condition.wait gate_c gate_m
    done;
    Mutex.unlock gate_m;
    incr computed;
    42
  in
  let leader = Thread.create (fun () -> Inflight.run table ~key:"k" compute) () in
  Mutex.lock leader_entered;
  while not !entered do
    Condition.wait entered_c leader_entered
  done;
  Mutex.unlock leader_entered;
  let follower =
    Thread.create
      (fun () ->
        let role, v = Inflight.run table ~key:"k" compute in
        Alcotest.(check bool) "joined as follower" true (role = Inflight.Follower);
        Alcotest.(check int) "leader's answer" 42 v)
      ()
  in
  (* let the follower reach the wait, then release the leader *)
  Thread.delay 0.05;
  Mutex.lock gate_m;
  release := true;
  Condition.broadcast gate_c;
  Mutex.unlock gate_m;
  Thread.join leader;
  Thread.join follower;
  Alcotest.(check int) "computed exactly once" 1 !computed;
  let led, followed, waiting = Inflight.stats table in
  Alcotest.(check int) "led" 1 led;
  Alcotest.(check int) "followed" 1 followed;
  Alcotest.(check int) "table empty" 0 waiting;
  (* a later identical request starts fresh (leads again) *)
  let role, v = Inflight.run table ~key:"k" (fun () -> 7) in
  Alcotest.(check bool) "fresh leader" true (role = Inflight.Leader);
  Alcotest.(check int) "fresh value" 7 v

(* ---------- manifest and recovery ---------- *)

let test_manifest_roundtrip () =
  let path = tmp_path ".manifest" in
  let entries =
    [
      (* a static entry (live fields at their defaults) and a mutated
         one (snapshot version, diverged rolling fingerprint, journal) *)
      {
        Manifest.name = "g";
        path = "/data/g.txt";
        fingerprint = "aa";
        db_version = 0;
        live_fingerprint = "aa";
        journal = None;
        partition = None;
      };
      {
        Manifest.name = "h";
        path = "/data/h.txt";
        fingerprint = "bb";
        db_version = 3;
        live_fingerprint = "cc";
        journal = Some "/data/h.journal";
        partition = Some "hash:0:2";
      };
    ]
  in
  (match Manifest.write ~path entries with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write failed: %s" (Error.message e));
  (match Manifest.read ~path with
  | Ok entries' ->
      Alcotest.(check bool) "entries round-trip" true (entries = entries')
  | Error e -> Alcotest.failf "read failed: %s" (Error.message e));
  (* garbage on disk is a typed parse error, not an exception *)
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "#?!%&*~^\n");
  (match Manifest.read ~path with
  | Error (Error.Parse _) -> ()
  | Ok _ -> Alcotest.fail "garbage manifest read back"
  | Error e -> Alcotest.failf "wrong error class: %s" (Error.class_name e));
  Sys.remove path

(* The recovery scenario, parameterized over whether the catalog was
   mutated between load and crash. The expected version/fingerprint are
   {e captured from the daemon's responses}, never assumed static — so
   the same assertions hold for a pristine catalog (version 0, content
   fingerprint) and for one whose delta journal must be replayed on top
   of the snapshot. *)
let recovery_scenario ~mutate () =
  let db_file = tmp_path ".db" in
  let manifest = tmp_path ".manifest" in
  Structure_io.save db_file (db ());
  let config = { Server.default_config with manifest = Some manifest } in
  let seed = 907 in
  let count server =
    let client = connect_raw server in
    Fun.protect ~finally:(fun () -> disconnect_raw client) (fun () ->
        expect_counted
          (call_raw client
             (Wire.Count (Wire.params ~seed ~db:(Wire.Named "gg") query))))
  in
  (* first life: load from file (writes the manifest), maybe mutate
     (journal appends), answer *)
  let server1 = Server.create ~config () in
  (match Server.load_db server1 ~name:"gg" ~path:db_file with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "load_db failed: %s" (Error.message e));
  Alcotest.(check bool) "first life is not a recovery" false
    (Server.recovered server1);
  let expect_version, expect_fingerprint =
    if not mutate then
      let e =
        Option.get (Catalog.find (Server.catalog server1) "gg")
      in
      (e.Catalog.version, e.Catalog.fingerprint)
    else begin
      let client = connect_raw server1 in
      Fun.protect ~finally:(fun () -> disconnect_raw client) (fun () ->
          let mutated = function
            | Wire.Mutated { db_version; fingerprint; _ } ->
                (db_version, fingerprint)
            | Wire.Refused { error_class; message; _ } ->
                Alcotest.failf "mutation refused [%s]: %s" error_class message
            | _ -> Alcotest.fail "expected a MUTATE response"
          in
          ignore
            (mutated
               (call_raw client
                  (Wire.Insert
                     {
                       db = Wire.Named "gg";
                       rel = "E";
                       tuples = [ [| 23; 0 |]; [| 0; 23 |] ];
                       batch_id = Some "crash-b1";
                     })));
          mutated
            (call_raw client
               (Wire.Delete
                  {
                    db = Wire.Named "gg";
                    rel = "E";
                    tuples = [ [| 23; 0 |] ];
                    batch_id = Some "crash-b2";
                  })))
    end
  in
  let before = count server1 in
  (* second life: nothing but the manifest and the journal (the
     process "crashed") *)
  let server2 = Server.create ~config () in
  (match Server.recover server2 with
  | Ok [ "gg" ] -> ()
  | Ok names ->
      Alcotest.failf "recovered %d entries, wanted [gg]" (List.length names)
  | Error e -> Alcotest.failf "recover failed: %s" (Error.message e));
  Alcotest.(check bool) "recovered flag set" true (Server.recovered server2);
  let e2 = Option.get (Catalog.find (Server.catalog server2) "gg") in
  Alcotest.(check int) "recovered at the captured version" expect_version
    e2.Catalog.version;
  Alcotest.(check string) "recovered at the captured fingerprint"
    expect_fingerprint e2.Catalog.fingerprint;
  let after = count server2 in
  Alcotest.(check bool) "estimate survives the crash, bit for bit" true
    (Int64.bits_of_float before.Wire.estimate
    = Int64.bits_of_float after.Wire.estimate);
  (* a retried batch from before the crash still replays after it: the
     journal repopulated the dedupe table *)
  if mutate then begin
    let client = connect_raw server2 in
    Fun.protect ~finally:(fun () -> disconnect_raw client) (fun () ->
        match
          call_raw client
            (Wire.Delete
               {
                 db = Wire.Named "gg";
                 rel = "E";
                 tuples = [ [| 23; 0 |] ];
                 batch_id = Some "crash-b2";
               })
        with
        | Wire.Mutated { replayed; db_version; fingerprint; _ } ->
            Alcotest.(check bool) "pre-crash batch id replays" true replayed;
            Alcotest.(check int) "replay at the captured version"
              expect_version db_version;
            Alcotest.(check string) "replay at the captured fingerprint"
              expect_fingerprint fingerprint
        | _ -> Alcotest.fail "expected a MUTATE response")
  end;
  (* drift detection: regenerate the database, keep the old manifest *)
  let rng = Random.State.make [| 9 |] in
  Structure_io.save db_file
    (Ac_workload.Graph.to_structure (Ac_workload.Graph.random_gnp ~rng 10 0.5));
  let server3 = Server.create ~config () in
  (match Server.recover server3 with
  | Error (Error.Io { msg; _ }) ->
      Alcotest.(check bool) "mismatch names the fingerprints" true
        (String.length msg > 0
        && String.exists (fun _ -> true) msg
        &&
        let has sub s =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        has "fingerprint mismatch" msg)
  | Ok _ -> Alcotest.fail "fingerprint drift went unnoticed"
  | Error e -> Alcotest.failf "wrong error class: %s" (Error.class_name e));
  Sys.remove db_file;
  Sys.remove manifest;
  try Sys.remove (manifest ^ ".gg.journal") with Sys_error _ -> ()

let test_recovery_bit_identical () = recovery_scenario ~mutate:false ()
let test_recovery_bit_identical_mutated () = recovery_scenario ~mutate:true ()

(* A merge's compacted snapshot goes through the same temp + fsync +
   rename + directory-fsync write as the manifest naming it: nothing is
   left half-written ([.tmp]) and the named file recovers to the live
   fingerprint. *)
let test_persisted_merge_durable () =
  let dir = Filename.temp_file "acq_merge" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let db_file = Filename.concat dir "g.db" in
  let manifest = Filename.concat dir "cat.manifest" in
  Structure_io.save db_file (db ());
  let config =
    { Server.default_config with manifest = Some manifest; merge_threshold = 1; merge_ratio = 0.0 }
  in
  let server = Server.create ~config () in
  (match Server.load_db server ~name:"gg" ~path:db_file with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "load_db failed: %s" (Error.message e));
  let client = connect_raw server in
  Fun.protect ~finally:(fun () -> disconnect_raw client) (fun () ->
      match
        call_raw client
          (Wire.Insert
             { db = Wire.Named "gg"; rel = "E"; tuples = [ [| 23; 0 |] ]; batch_id = None })
      with
      | Wire.Mutated _ -> ()
      | _ -> Alcotest.fail "expected a MUTATE response");
  let live = Option.get (Catalog.find (Server.catalog server) "gg") in
  let entry =
    match Manifest.read ~path:manifest with
    | Ok [ e ] -> e
    | Ok _ -> Alcotest.fail "expected one manifest entry"
    | Error e -> Alcotest.failf "manifest read: %s" (Error.message e)
  in
  Alcotest.(check bool) "manifest names the compacted snapshot" true
    (entry.Manifest.path <> db_file && entry.Manifest.db_version = live.Catalog.version);
  Alcotest.(check (list string)) "no temp files left" []
    (List.filter (fun f -> Filename.check_suffix f ".tmp") (Array.to_list (Sys.readdir dir)));
  Alcotest.(check string) "snapshot bytes match the recorded fingerprint"
    entry.Manifest.fingerprint
    (Structure.fingerprint (Structure_io.load entry.Manifest.path));
  let recovered = Server.create ~config () in
  (match Server.recover recovered with
  | Ok [ "gg" ] -> ()
  | Ok _ -> Alcotest.fail "recovered the wrong entries"
  | Error e -> Alcotest.failf "recover failed: %s" (Error.message e));
  Alcotest.(check string) "recovers to the live fingerprint" live.Catalog.fingerprint
    (Option.get (Catalog.find (Server.catalog recovered) "gg")).Catalog.fingerprint;
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* Out-of-range accuracy targets are refused at the wire with the parse
   class, before the scheduler sees any work. *)
let test_accuracy_refused () =
  with_server (fun server ->
      let client = connect_raw server in
      Fun.protect ~finally:(fun () -> disconnect_raw client) (fun () ->
          output_string client.oc
            {|{"verb":"count","query":"ans(x) :- E(x,y)","use":"g","eps":-1,"delta":7}|};
          output_char client.oc '\n';
          flush client.oc;
          (match Wire.read_json client.ic with
          | Wire.Msg j -> (
              match Wire.response_of_json j with
              | Ok (Wire.Refused { code; error_class; _ }) ->
                  Alcotest.(check int) "status" 10 code;
                  Alcotest.(check string) "class" "parse" error_class
              | _ -> Alcotest.fail "expected a refusal")
          | _ -> Alcotest.fail "no response");
          Alcotest.(check int) "no work admitted" 0
            (Scheduler.stats (Server.scheduler server)).Scheduler.completed))

(* The crash window between a merge's manifest rewrite and its journal
   truncate: the journal still holds lines the fresh snapshot already
   contains. Recovery must not re-apply them, but it must keep their
   idempotency keys live — a client retrying a compacted batch after
   the crash is answered as a replay, not re-applied with a version
   bump. And a journal whose applied lines skip a sequence number means
   an acknowledged batch is gone: recovery must refuse, not silently
   serve a diverged database. *)
let test_recovery_compaction_window () =
  let db_file = tmp_path ".db" in
  let manifest = tmp_path ".manifest" in
  let snap_file = tmp_path ".snapshot" in
  let journal = manifest ^ ".gg.journal" in
  Structure_io.save db_file (db ());
  let config = { Server.default_config with manifest = Some manifest } in
  (* first life: load, apply one batch (journal line seq 1) *)
  let server1 = Server.create ~config () in
  (match Server.load_db server1 ~name:"gg" ~path:db_file with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "load_db failed: %s" (Error.message e));
  let client1 = connect_raw server1 in
  let v1, f1 =
    Fun.protect
      ~finally:(fun () -> disconnect_raw client1)
      (fun () ->
        match
          call_raw client1
            (Wire.Insert
               {
                 db = Wire.Named "gg";
                 rel = "E";
                 tuples = [ [| 3; 3 |] ];
                 batch_id = Some "cw-b1";
               })
        with
        | Wire.Mutated { db_version; fingerprint; _ } -> (db_version, fingerprint)
        | _ -> Alcotest.fail "expected a MUTATE response")
  in
  (* fabricate the crash residue: a snapshot capturing version v1 and a
     manifest pointing at it, with the compacted line still in the
     journal (the crash hit before the truncate) *)
  let live = Option.get (Catalog.live_find (Server.catalog server1) "gg") in
  let snap = Live.Db.snapshot live in
  Structure_io.save snap_file snap;
  (match
     Manifest.write ~path:manifest
       [
         {
           Manifest.name = "gg";
           path = snap_file;
           fingerprint = Structure.fingerprint snap;
           db_version = v1;
           live_fingerprint = f1;
           journal = Some journal;
           partition = None;
         };
       ]
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "manifest write failed: %s" (Error.message e));
  (* second life: the compacted line is skipped, its id kept live *)
  let server2 = Server.create ~config () in
  (match Server.recover server2 with
  | Ok [ "gg" ] -> ()
  | Ok names ->
      Alcotest.failf "recovered %d entries, wanted [gg]" (List.length names)
  | Error e -> Alcotest.failf "recover failed: %s" (Error.message e));
  let e2 = Option.get (Catalog.find (Server.catalog server2) "gg") in
  Alcotest.(check int) "recovered at the compacted version" v1
    e2.Catalog.version;
  Alcotest.(check string) "recovered at the compacted fingerprint" f1
    e2.Catalog.fingerprint;
  let client2 = connect_raw server2 in
  Fun.protect
    ~finally:(fun () -> disconnect_raw client2)
    (fun () ->
      match
        call_raw client2
          (Wire.Insert
             {
               db = Wire.Named "gg";
               rel = "E";
               tuples = [ [| 3; 3 |] ];
               batch_id = Some "cw-b1";
             })
      with
      | Wire.Mutated { replayed; db_version; fingerprint; _ } ->
          Alcotest.(check bool) "compacted batch id replays, not re-applies"
            true replayed;
          Alcotest.(check int) "replay at the journaled version" v1 db_version;
          Alcotest.(check string) "replay at the journaled fingerprint" f1
            fingerprint
      | _ -> Alcotest.fail "expected a MUTATE response");
  (* a restart that passes the same --load as the first boot must keep
     the recovered state — a fresh load here would reset the journal
     and silently discard the acknowledged batch *)
  (match Server.load_db server2 ~name:"gg" ~path:db_file with
  | Ok entry ->
      Alcotest.(check int) "re-load of a recovered name is a no-op" v1
        entry.Catalog.version
  | Error e -> Alcotest.failf "re-load refused: %s" (Error.message e));
  (match Journal.replay journal with
  | Ok lines ->
      Alcotest.(check bool) "…and the journal survives" true (lines <> [])
  | Error e -> Alcotest.failf "journal unreadable: %s" (Error.message e));
  (* a gap in the applied sequence (v1+2 without v1+1) refuses recovery *)
  (match
     Journal.append journal
       { Journal.seq = v1 + 2; id = None; fingerprint = "zz"; ops = [] }
   with
  | Ok () -> ()
  | Error e -> Alcotest.failf "journal append failed: %s" (Error.message e));
  let server3 = Server.create ~config () in
  (match Server.recover server3 with
  | Error (Error.Io { msg; _ }) ->
      let has sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "refusal names the journal gap" true
        (has "journal gap" msg)
  | Ok _ -> Alcotest.fail "a journal gap went unnoticed"
  | Error e -> Alcotest.failf "wrong error class: %s" (Error.class_name e));
  List.iter
    (fun f -> try Sys.remove f with Sys_error _ -> ())
    [ db_file; manifest; snap_file; journal ]

(* ---------- stale sockets ---------- *)

let test_stale_socket () =
  let path = tmp_path ".sock" in
  (* fabricate a crash residue: bind a socket, close the fd, keep the
     file *)
  let dead = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind dead (Unix.ADDR_UNIX path);
  Unix.close dead;
  (match Server.listen_unix ~path () with
  | Error (Error.Io { msg; _ }) ->
      Alcotest.(check bool) "stale refusal mentions --force" true
        (String.length msg > 0
        &&
        let has sub s =
          let n = String.length sub and m = String.length s in
          let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
          go 0
        in
        has "--force" msg && has "stale" msg)
  | Ok _ -> Alcotest.fail "bound over a stale socket without --force"
  | Error e -> Alcotest.failf "wrong error class: %s" (Error.class_name e));
  (* --force cleans up and binds *)
  (match Server.listen_unix ~force:true ~path () with
  | Ok fd -> (
      (* the socket is now live: a second daemon must be refused, with
         or without --force *)
      (match Server.listen_unix ~force:true ~path () with
      | Error (Error.Io _) -> ()
      | Ok _ -> Alcotest.fail "stole a live daemon's socket"
      | Error e -> Alcotest.failf "wrong error class: %s" (Error.class_name e));
      Unix.close fd)
  | Error e -> Alcotest.failf "--force failed: %s" (Error.message e));
  try Sys.remove path with Sys_error _ -> ()

(* ---------- the chaos proxy and the retrying client ---------- *)

let durable_policy ?read_timeout_ms ?deadline_ms () =
  {
    Ac_server.Retry_policy.attempts = 5;
    backoff_base_ms = 1.0;
    backoff_cap_ms = 10.0;
    read_timeout_ms;
    deadline_ms;
    seed = 11;
  }

let with_proxy ?(faults = []) ?(p_fault = 0.0) ?(chaos_seed = 1) f =
  with_server (fun server ->
      let path = tmp_path ".sock" in
      let plan = Chaos.Wire_plan.create ~faults ~p_fault ~seed:chaos_seed () in
      let proxy =
        Chaos_proxy.start ~path ~plan
          ~serve:(fun fd -> Server.serve_connection server fd)
          ()
      in
      Fun.protect
        ~finally:(fun () -> Chaos_proxy.stop proxy)
        (fun () -> f server proxy (Client.Unix_socket path)))

let count_durable client ~seed =
  match
    Client.call client
      (Wire.Count (Wire.params ~seed ~db:(Wire.Named "g") query))
  with
  | Ok (Wire.Counted o) -> o
  | Ok (Wire.Refused { error_class; message; _ }) ->
      Alcotest.failf "refused [%s]: %s" error_class message
  | Ok _ -> Alcotest.fail "expected a COUNT response"
  | Error e -> Alcotest.failf "durable call failed: %s" (Error.message e)

(* One fault class, one scenario: the faulted seeded COUNT must come
   back bit-identical to single-shot, with the expected number of
   retries, and the scheduler must have computed it exactly once
   (everything else was cache or dedupe — no double budget spend). *)
let check_fault_scenario ~name ~faults ?read_timeout_ms ~expect_retries () =
  with_proxy ~faults (fun server _proxy address ->
      let client =
        Client.create ~policy:(durable_policy ?read_timeout_ms ()) address
      in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let seed = 4242 in
          let expected = (single_shot ~seed query).Api.estimate in
          let o = count_durable client ~seed in
          Alcotest.(check bool)
            (Printf.sprintf "%s: bit-identical estimate" name)
            true
            (Int64.bits_of_float o.Wire.estimate = Int64.bits_of_float expected);
          Alcotest.(check int)
            (Printf.sprintf "%s: retries" name)
            expect_retries
            (Client.retries_total client);
          let s = Scheduler.stats (Server.scheduler server) in
          Alcotest.(check int)
            (Printf.sprintf "%s: computed exactly once" name)
            1 s.Scheduler.completed))

let test_fault_drop () =
  check_fault_scenario ~name:"drop"
    ~faults:[ (1, Chaos.Drop_connection) ]
    ~expect_retries:1 ()

let test_fault_truncate () =
  (* the partial frame parses as garbage (attempt 2 on the same, now
     dead, connection fails the write), so recovery takes 2 retries *)
  check_fault_scenario ~name:"truncate"
    ~faults:[ (1, Chaos.Truncate_frame 5) ]
    ~expect_retries:2 ()

let test_fault_delay () =
  (* Warm the result cache through a patient client first (frame 1,
     unfaulted), so the impatient client's timing depends only on the
     cache-hot path, not on how long the first computation takes. Its
     first attempt (frame 2) is delayed past the read timeout; the
     retry (frame 3) hits the cache and must answer identically. *)
  with_proxy
    ~faults:[ (2, Chaos.Delay_frame_ms 2000) ]
    (fun server _proxy address ->
      let seed = 4242 in
      let expected = (single_shot ~seed query).Api.estimate in
      let patient = Client.create ~policy:(durable_policy ()) address in
      let warm =
        Fun.protect
          ~finally:(fun () -> Client.close patient)
          (fun () -> count_durable patient ~seed)
      in
      Alcotest.(check bool) "delay: warm-up correct" true
        (Int64.bits_of_float warm.Wire.estimate = Int64.bits_of_float expected);
      let impatient =
        Client.create
          ~policy:(durable_policy ~read_timeout_ms:150 ())
          address
      in
      Fun.protect
        ~finally:(fun () -> Client.close impatient)
        (fun () ->
          let o = count_durable impatient ~seed in
          Alcotest.(check bool) "delay: bit-identical estimate" true
            (Int64.bits_of_float o.Wire.estimate = Int64.bits_of_float expected);
          Alcotest.(check int) "delay: one retry" 1
            (Client.retries_total impatient);
          let s = Scheduler.stats (Server.scheduler server) in
          Alcotest.(check int) "delay: computed exactly once" 1
            s.Scheduler.completed))

let test_fault_garbage_resync () =
  (* garbage keeps the connection open: the client resynchronises and
     retries on the same connection, and fresh connections still work *)
  with_proxy
    ~faults:[ (1, Chaos.Garbage_bytes 16) ]
    (fun server proxy address ->
      let client = Client.create ~policy:(durable_policy ()) address in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let seed = 4242 in
          let expected = (single_shot ~seed query).Api.estimate in
          let o = count_durable client ~seed in
          Alcotest.(check bool) "garbage: bit-identical" true
            (Int64.bits_of_float o.Wire.estimate = Int64.bits_of_float expected);
          Alcotest.(check int) "garbage: one retry" 1
            (Client.retries_total client);
          (* the fault really fired *)
          (match Chaos_proxy.plan proxy |> Chaos.Wire_plan.history with
          | (1, Chaos.Garbage_bytes 16) :: _ -> ()
          | _ -> Alcotest.fail "garbage fault did not fire");
          (* a brand-new plain connection finds a healthy daemon *)
          (match Client.connect address with
          | Ok c ->
              (match Client.call c Wire.Ping with
              | Ok Wire.Pong -> ()
              | _ -> Alcotest.fail "fresh connection could not ping");
              Client.close c
          | Error e ->
              Alcotest.failf "fresh connection failed: %s" (Error.message e));
          (* cache counters consistent: computed once, replayed once *)
          let s = Scheduler.stats (Server.scheduler server) in
          Alcotest.(check int) "garbage: computed exactly once" 1
            s.Scheduler.completed))

let test_fault_duplicate_id_discard () =
  with_proxy
    ~faults:[ (1, Chaos.Duplicate_frame) ]
    (fun _server _proxy address ->
      let client = Client.create ~policy:(durable_policy ()) address in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          (* first answer arrives twice; the surplus frame sits in the
             stream until the next call, whose id mismatch discards it *)
          let o1 = count_durable client ~seed:1 in
          let o2 = count_durable client ~seed:2 in
          let e1 = (single_shot ~seed:1 query).Api.estimate in
          let e2 = (single_shot ~seed:2 query).Api.estimate in
          Alcotest.(check bool) "first answer right" true
            (Int64.bits_of_float o1.Wire.estimate = Int64.bits_of_float e1);
          Alcotest.(check bool)
            "second answer right despite the duplicate frame" true
            (Int64.bits_of_float o2.Wire.estimate = Int64.bits_of_float e2);
          Alcotest.(check int) "no retries needed" 0
            (Client.retries_total client)))

let test_retry_unsafe_unseeded () =
  with_proxy
    ~faults:[ (1, Chaos.Drop_connection) ]
    (fun _server _proxy address ->
      let client = Client.create ~policy:(durable_policy ()) address in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          match
            Client.call client
              (Wire.Count (Wire.params ~db:(Wire.Named "g") query))
          with
          | Error (Error.Retry_unsafe { verb; _ } as e) ->
              Alcotest.(check string) "verb" "count" verb;
              Alcotest.(check string) "class" "retry" (Error.class_name e);
              Alcotest.(check int) "exit code" 19 (Error.exit_code e);
              Alcotest.(check int) "no retry happened" 0
                (Client.retries_total client)
          | Ok _ -> Alcotest.fail "an unseeded request was retried"
          | Error e -> Alcotest.failf "wrong error: %s" (Error.message e)))

let test_client_error_context () =
  (* connection refused: the address is in the error *)
  let missing = tmp_path ".sock" in
  (match Client.connect (Client.Unix_socket missing) with
  | Error (Error.Io { file; msg }) ->
      Alcotest.(check string) "address in the error" ("unix:" ^ missing) file;
      Alcotest.(check bool) "verb in the message" true
        (String.length msg > 8 && String.sub msg 0 8 = "connect:")
  | Ok _ -> Alcotest.fail "connected to nothing"
  | Error e -> Alcotest.failf "wrong error class: %s" (Error.class_name e));
  (* server hangs up mid-session: verb and address still identified *)
  with_proxy (fun _server proxy address ->
      match Client.connect address with
      | Error e -> Alcotest.failf "connect failed: %s" (Error.message e)
      | Ok c ->
          Fun.protect ~finally:(fun () -> Client.close c) (fun () ->
              Chaos_proxy.stop proxy;
              match Client.call c Wire.Ping with
              | Error (Error.Io { file; msg }) ->
                  Alcotest.(check string) "address" ("unix:" ^ Chaos_proxy.path proxy)
                    file;
                  Alcotest.(check bool) "verb" true
                    (String.length msg > 5 && String.sub msg 0 5 = "ping:")
              | Ok _ -> Alcotest.fail "call succeeded on a dead proxy"
              | Error e ->
                  Alcotest.failf "wrong error class: %s" (Error.class_name e)))

let tests =
  [
    Alcotest.test_case "wire: HEALTH, ids, deadline_ms, idempotency" `Quick
      test_wire_health_and_ids;
    Alcotest.test_case "deadline: shed at admission (exit 18)" `Quick
      test_deadline_shed;
    Alcotest.test_case "health: readiness, queue, recovery flag" `Quick
      test_health_verb;
    Alcotest.test_case "inflight: single-flight dedupe" `Quick
      test_inflight_single_flight;
    Alcotest.test_case "manifest: atomic round-trip, typed failures" `Quick
      test_manifest_roundtrip;
    Alcotest.test_case "recovery: bit-identical across a crash" `Slow
      test_recovery_bit_identical;
    Alcotest.test_case "recovery: journal replayed for a mutated catalog"
      `Slow test_recovery_bit_identical_mutated;
    Alcotest.test_case "recovery: persisted merge is durable" `Quick
      test_persisted_merge_durable;
    Alcotest.test_case "wire: out-of-range eps/delta refused (exit 10)" `Quick
      test_accuracy_refused;
    Alcotest.test_case "recovery: compaction crash window, journal gaps"
      `Slow test_recovery_compaction_window;
    Alcotest.test_case "socket: stale refused, --force, live protected" `Quick
      test_stale_socket;
    Alcotest.test_case "chaos: drop — retried, computed once" `Slow
      test_fault_drop;
    Alcotest.test_case "chaos: truncate — retried, computed once" `Slow
      test_fault_truncate;
    Alcotest.test_case "chaos: delay — timeout, retried, computed once" `Slow
      test_fault_delay;
    Alcotest.test_case "chaos: garbage — resync on the same connection" `Slow
      test_fault_garbage_resync;
    Alcotest.test_case "chaos: duplicate — stale frames discarded by id" `Slow
      test_fault_duplicate_id_discard;
    Alcotest.test_case "retry: unseeded refused (exit 19)" `Quick
      test_retry_unsafe_unseeded;
    Alcotest.test_case "client: errors name address and verb" `Quick
      test_client_error_context;
  ]
