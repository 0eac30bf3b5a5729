module Seeds = Ac_exec.Seeds
module Engine = Ac_exec.Engine
module Budget = Ac_runtime.Budget
module Error = Ac_runtime.Error
module Api = Approxcount.Api
module Colour_oracle = Approxcount.Colour_oracle
module Ecq = Ac_query.Ecq
module Graph = Ac_workload.Graph

(* ------------------------------------------------------------------ *)
(* Seeds                                                              *)

let test_seeds_deterministic () =
  for i = -3 to 100 do
    Alcotest.(check int) "derive stable" (Seeds.derive ~seed:42 i)
      (Seeds.derive ~seed:42 i)
  done;
  let seen = Hashtbl.create 1024 in
  for i = 0 to 999 do
    let v = Seeds.derive ~seed:42 i in
    Alcotest.(check bool) "derive distinct" false (Hashtbl.mem seen v);
    Hashtbl.add seen v ()
  done

let test_seeds_streams () =
  let a = Seeds.state ~seed:7 ~stream:3 in
  let b = Seeds.state ~seed:7 ~stream:3 in
  for _ = 1 to 50 do
    Alcotest.(check (float 0.0)) "equal streams replay"
      (Random.State.float a 1.0) (Random.State.float b 1.0)
  done;
  let a' = Seeds.state ~seed:7 ~stream:3 in
  let c = Seeds.state ~seed:7 ~stream:4 in
  let differs = ref false in
  for _ = 1 to 50 do
    if Random.State.float a' 1.0 <> Random.State.float c 1.0 then
      differs := true
  done;
  Alcotest.(check bool) "distinct streams differ" true !differs

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)

(* A trial whose result depends on every draw it makes: any chunking
   or stream-assignment mistake shows up as a different float. *)
let trial ~rng ~budget:_ i =
  let acc = ref (float_of_int i) in
  for _ = 1 to 100 do
    acc := !acc +. Random.State.float rng 1.0
  done;
  !acc

let test_engine_jobs_identity () =
  let baseline = Engine.run (Engine.make ~jobs:1 ~seed:99 ()) ~trials:37 trial in
  List.iter
    (fun jobs ->
      let got = Engine.run (Engine.make ~jobs ~seed:99 ()) ~trials:37 trial in
      Alcotest.(check (array (float 0.0)))
        (Printf.sprintf "jobs=%d matches jobs=1" jobs)
        baseline got)
    [ 2; 4; 8 ]

let test_engine_exception_propagates () =
  let exec = Engine.make ~jobs:4 ~seed:1 () in
  match
    Engine.run exec ~trials:16 (fun ~rng:_ ~budget:_ i ->
        if i = 11 then failwith "boom";
        i)
  with
  | _ -> Alcotest.fail "expected Failure to propagate across the join"
  | exception Failure m -> Alcotest.(check string) "message intact" "boom" m

let test_engine_budget_trip () =
  let budget = Budget.create ~label:"trip" ~max_ticks:64 ~check_every:1 () in
  let exec = Engine.make ~jobs:4 ~seed:5 () in
  match
    Engine.run exec ~budget ~trials:16 (fun ~rng:_ ~budget i ->
        for _ = 1 to 100 do
          Budget.tick budget
        done;
        i)
  with
  | _ -> Alcotest.fail "expected Budget_exceeded"
  | exception Budget.Budget_exceeded trip ->
      (* the winning failure is a real trip, never the sibling
         cancellation it triggered *)
      Alcotest.(check bool) "work limit fired" true
        (trip.Budget.limit = Budget.Work);
      Alcotest.(check bool) "ticks absorbed into parent" true
        (Budget.ticks budget > 0)

(* ------------------------------------------------------------------ *)
(* Api determinism across jobs                                        *)

let cq = Ecq.parse "ans(x, y) :- E(x, y), E(y, z)"
let diseq = Ecq.parse "ans(x, y) :- E(x, y), x != y"

let graph_db ~seed n p =
  Graph.to_structure (Graph.random_gnp ~rng:(Random.State.make [| seed |]) n p)

let estimates ?eps ?delta ?(require_estimator = false) ~method_ q db =
  List.map
    (fun jobs ->
      let req = Api.Request.(make q db |> with_method method_) in
      let req = Option.fold ~none:req ~some:(fun e -> Api.Request.with_eps e req) eps in
      let req = Option.fold ~none:req ~some:(fun d -> Api.Request.with_delta d req) delta in
      match
        Api.run Api.Request.(req |> with_seed (Some 123) |> with_jobs (Some jobs))
      with
      | Error e -> Alcotest.failf "api error: %s" (Error.message e)
      | Ok r ->
          Alcotest.(check int) "telemetry jobs" jobs r.Api.telemetry.Api.jobs;
          Alcotest.(check int) "telemetry seed" 123 r.Api.telemetry.Api.seed;
          if require_estimator then
            Alcotest.(check bool) "took the estimator path" false r.Api.exact;
          r.Api.estimate)
    [ 1; 2; 4; 8 ]

let check_identical label es =
  match es with
  | [] -> Alcotest.fail "no estimates"
  | e :: rest ->
      List.iter
        (fun e' -> Alcotest.(check (float 0.0)) label e e')
        rest

let test_api_fpras_determinism () =
  let db = graph_db ~seed:11 30 0.2 in
  check_identical "fpras identical across jobs"
    (estimates ~method_:Api.Fpras cq db)

let test_api_fptras_tree_dp_determinism () =
  let db = graph_db ~seed:13 20 0.3 in
  check_identical "fptras/tree-dp identical across jobs"
    (estimates ~eps:0.5 ~delta:0.2 ~require_estimator:true
       ~method_:(Api.Fptras Colour_oracle.Tree_dp)
       diseq db)

let test_api_fptras_generic_determinism () =
  let db = graph_db ~seed:13 20 0.3 in
  check_identical "fptras/generic identical across jobs"
    (estimates ~eps:0.5 ~delta:0.2 ~require_estimator:true
       ~method_:(Api.Fptras Colour_oracle.Generic)
       diseq db)

let test_api_auto_determinism () =
  let db = graph_db ~seed:11 30 0.2 in
  check_identical "auto identical across jobs"
    (estimates ~method_:Api.Auto cq db)

let test_api_sample_determinism () =
  let db = graph_db ~seed:3 12 0.4 in
  let draw jobs =
    match
      Api.sample ~draws:6
        Api.Request.(
          make diseq db |> with_eps 0.5 |> with_delta 0.3
          |> with_method (Api.Fptras Colour_oracle.Tree_dp)
          |> with_seed (Some 77) |> with_jobs (Some jobs))
    with
    | Ok s -> s.Api.draws
    | Error e -> Alcotest.failf "sample error: %s" (Error.message e)
  in
  let base = draw 1 in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "draws identical jobs=%d" jobs)
        true
        (draw jobs = base))
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Budget trip under jobs = 4: the governed chain degrades, every
   domain comes home, and the response still carries a finite value.  *)

let test_api_budget_degrades_under_jobs () =
  let db = graph_db ~seed:17 40 0.3 in
  let budget =
    Budget.create ~label:"squeeze" ~max_ticks:500 ~check_every:16 ()
  in
  match
    Api.run
      Api.Request.(
        make diseq db |> with_method Api.Auto |> with_seed (Some 5)
        |> with_jobs (Some 4) |> with_budget (Some budget))
  with
  | Error e ->
      Alcotest.failf "expected degraded Ok, got error: %s" (Error.message e)
  | Ok r ->
      Alcotest.(check bool) "degraded" true r.Api.degraded;
      Alcotest.(check bool) "attempts recorded" true (r.Api.attempts <> []);
      Alcotest.(check bool) "finite estimate" true
        (Float.is_finite r.Api.estimate)

let tests =
  [
    Alcotest.test_case "seeds deterministic + distinct" `Quick
      test_seeds_deterministic;
    Alcotest.test_case "seed streams replay" `Quick test_seeds_streams;
    Alcotest.test_case "engine: jobs identity" `Quick test_engine_jobs_identity;
    Alcotest.test_case "engine: exception propagates" `Quick
      test_engine_exception_propagates;
    Alcotest.test_case "engine: budget trip, no stuck domains" `Quick
      test_engine_budget_trip;
    Alcotest.test_case "api: fpras determinism across jobs" `Quick
      test_api_fpras_determinism;
    Alcotest.test_case "api: fptras tree-dp determinism across jobs" `Quick
      test_api_fptras_tree_dp_determinism;
    Alcotest.test_case "api: fptras generic determinism across jobs" `Quick
      test_api_fptras_generic_determinism;
    Alcotest.test_case "api: auto determinism across jobs" `Quick
      test_api_auto_determinism;
    Alcotest.test_case "api: sample determinism across jobs" `Quick
      test_api_sample_determinism;
    Alcotest.test_case "api: budget trip under jobs=4 degrades" `Quick
      test_api_budget_degrades_under_jobs;
  ]
