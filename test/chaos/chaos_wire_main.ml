(* Wire-level chaos soak: a daemon behind the fault-injecting proxy,
   hammered with seeded COUNTs through the retrying client under
   probabilistic frame faults. Every answer must be bit-identical to
   the single-shot library result (retries never change the
   experiment), the scheduler must never compute the same request
   twice (retries never double-spend budget), and the same chaos seed
   must replay the same fault history. *)

module Api = Approxcount.Api
module Ecq = Ac_query.Ecq
module Error = Ac_runtime.Error
module Chaos = Ac_runtime.Chaos
module Wire = Ac_server.Wire
module Catalog = Ac_server.Catalog
module Scheduler = Ac_server.Scheduler
module Server = Ac_server.Server
module Client = Ac_server.Client
module Chaos_proxy = Ac_test_support.Chaos_proxy

let () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ -> ()

let db () =
  let rng = Random.State.make [| 2022 |] in
  Ac_workload.Graph.to_structure
    (Ac_workload.Graph.random_gnp ~rng 24 0.25)

let query = "ans(x) :- E(x,y), E(y,z)"

let single_shot ~seed =
  let q = Result.get_ok (Ecq.parse_result query) in
  match Api.run
         Api.Request.(make q (db ()) |> with_seed (Some seed) |> with_jobs (Some 1)) with
  | Ok r -> r.Api.estimate
  | Error e -> Alcotest.failf "single-shot failed: %s" (Error.message e)

let tmp_sock () =
  let f = Filename.temp_file "acq_chaos" ".sock" in
  Sys.remove f;
  f

let durable_policy =
  {
    Ac_server.Retry_policy.attempts = 7;
    backoff_base_ms = 1.0;
    backoff_cap_ms = 10.0;
    read_timeout_ms = None;
    deadline_ms = None;
    seed = 7;
  }

let with_soak ~chaos_seed f =
  let server = Server.create () in
  ignore (Catalog.add (Server.catalog server) ~name:"g" (db ()));
  let path = tmp_sock () in
  (* every non-killing fault class; Delay is kept tiny so the soak
     stays fast, and Drop exercises the reconnect path *)
  let plan =
    Chaos.Wire_plan.create ~p_fault:0.25 ~delay_ms:5 ~seed:chaos_seed ()
  in
  let proxy =
    Chaos_proxy.start ~path ~plan
      ~serve:(fun fd -> Server.serve_connection server fd)
      ()
  in
  Fun.protect
    ~finally:(fun () -> Chaos_proxy.stop proxy)
    (fun () -> f server proxy (Client.Unix_socket path))

let soak_seeds = List.init 12 (fun i -> 100 + i)

let test_soak_bit_identical () =
  with_soak ~chaos_seed:2022 (fun server proxy address ->
      let client = Client.create ~policy:durable_policy address in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          List.iter
            (fun seed ->
              let expected = single_shot ~seed in
              match
                Client.call client
                  (Wire.Count (Wire.params ~seed ~db:(Wire.Named "g") query))
              with
              | Ok (Wire.Counted o) ->
                  if
                    Int64.bits_of_float o.Wire.estimate
                    <> Int64.bits_of_float expected
                  then
                    Alcotest.failf
                      "seed %d: %h under chaos, %h single-shot — a retry \
                       changed the answer"
                      seed o.Wire.estimate expected
              | Ok (Wire.Refused { error_class; message; _ }) ->
                  Alcotest.failf "seed %d refused [%s]: %s" seed error_class
                    message
              | Ok _ -> Alcotest.failf "seed %d: not a COUNT reply" seed
              | Error e ->
                  Alcotest.failf "seed %d failed: %s" seed (Error.message e))
            soak_seeds;
          (* the soak only proves something if faults actually fired *)
          let fired = List.length (Chaos.Wire_plan.history (Chaos_proxy.plan proxy)) in
          Alcotest.(check bool) "faults fired" true (fired > 0);
          Alcotest.(check bool) "retries happened" true
            (Client.retries_total client > 0);
          (* zero double-spend: every distinct request computed once *)
          let s = Scheduler.stats (Server.scheduler server) in
          Alcotest.(check int) "each request computed exactly once"
            (List.length soak_seeds) s.Scheduler.completed))

let test_soak_replayable () =
  (* the same chaos seed replays the same fault history, frame for
     frame — a failing soak run is reproducible from its seed *)
  let history chaos_seed =
    with_soak ~chaos_seed (fun _server proxy address ->
        let client = Client.create ~policy:durable_policy address in
        Fun.protect
          ~finally:(fun () -> Client.close client)
          (fun () ->
            List.iter
              (fun seed ->
                match
                  Client.call client
                    (Wire.Count (Wire.params ~seed ~db:(Wire.Named "g") query))
                with
                | Ok _ -> ()
                | Error e ->
                    Alcotest.failf "seed %d failed: %s" seed (Error.message e))
              (List.init 6 (fun i -> 300 + i));
            Chaos.Wire_plan.history (Chaos_proxy.plan proxy)))
  in
  let show h =
    String.concat ";"
      (List.map
         (fun (frame, fault) ->
           Printf.sprintf "%d:%s" frame (Chaos.wire_fault_name fault))
         h)
  in
  Alcotest.(check string) "same seed, same fault stream" (show (history 77))
    (show (history 77))

let () =
  Alcotest.run "chaos-wire"
    [
      ( "wire-soak",
        [
          Alcotest.test_case "bit-identical under probabilistic faults" `Slow
            test_soak_bit_identical;
          Alcotest.test_case "fault stream replayable from seed" `Slow
            test_soak_replayable;
        ] );
    ]
