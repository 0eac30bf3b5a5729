(* Chaos soak: governed execution under seeded probabilistic fault
   injection. Every outcome must be a value or a typed error — never an
   unhandled exception — and the same seed must reproduce the same
   event stream and the same outcome. *)

module Budget = Ac_runtime.Budget
module Error = Ac_runtime.Error
module Chaos = Ac_runtime.Chaos
module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Planner = Approxcount.Planner
module Exact = Approxcount.Exact

let query () = Ecq.parse "ans(x) :- E(x, y), E(x, z), y != z"

let db () =
  Structure.of_facts ~universe_size:8
    [
      ("E", [| 0; 1 |]); ("E", [| 0; 2 |]); ("E", [| 1; 2 |]);
      ("E", [| 2; 3 |]); ("E", [| 3; 4 |]); ("E", [| 3; 5 |]);
      ("E", [| 5; 6 |]); ("E", [| 6; 7 |]); ("E", [| 6; 0 |]);
    ]

type outcome = Value of float * string * bool | Failed of string

let run_once ~seed =
  let budget = Budget.create ~max_ticks:1_000_000 ~check_every:16 () in
  let chaos = Chaos.create ~p_fail:0.35 ~p_delay:0.0 ~budget ~seed () in
  let exec = Ac_exec.Engine.make ~jobs:1 ~seed () in
  match
    Ac_test_support.Governed.count ~exec ~chaos ~budget ~eps:0.3 ~delta:0.2
      (query ()) (db ())
  with
  | Ok g ->
      Value
        (g.Planner.estimate, Planner.rung_name g.Planner.rung, g.Planner.degraded)
  | Error e -> Failed (Error.class_name e)

let test_soak_total () =
  (* across many seeds: some runs degrade, some fail, all stay typed *)
  let degraded = ref 0 and failed = ref 0 and clean = ref 0 in
  for seed = 1 to 60 do
    match run_once ~seed with
    | Value (v, _, d) ->
        if not (Float.is_finite v && v >= 0.0) then
          Alcotest.failf "seed %d: bad estimate %f" seed v;
        incr (if d then degraded else clean)
    | Failed cls ->
        if cls <> "fault" && cls <> "budget" then
          Alcotest.failf "seed %d: unexpected error class %s" seed cls;
        incr failed
  done;
  (* p_fail = 0.35 over a 4-rung chain: all three behaviours must show up *)
  Alcotest.(check bool) "some runs degrade" true (!degraded > 0);
  Alcotest.(check bool) "some runs fail all rungs" true (!failed > 0);
  Alcotest.(check bool) "some runs stay clean" true (!clean > 0)

let test_soak_reproducible () =
  for seed = 1 to 20 do
    if run_once ~seed <> run_once ~seed then
      Alcotest.failf "seed %d: outcome not reproducible" seed
  done

let test_soak_leaves_clean_state () =
  let expected = Exact.by_join_projection (query ()) (db ()) in
  for seed = 1 to 20 do
    ignore (run_once ~seed);
    let got = Exact.by_join_projection (query ()) (db ()) in
    if got <> expected then
      Alcotest.failf "seed %d corrupted shared state: %d <> %d" seed got
        expected
  done

let test_delays_only_slow_down () =
  (* pure delays: no faults, so the planned rung must answer un-degraded *)
  let chaos = Chaos.create ~p_fail:0.0 ~p_delay:0.5 ~delay_ms:1 ~seed:7 () in
  let exec = Ac_exec.Engine.make ~jobs:1 ~seed:7 () in
  match
    Ac_test_support.Governed.count ~exec ~chaos ~eps:0.3 ~delta:0.2 (query ())
      (db ())
  with
  | Ok g -> Alcotest.(check bool) "not degraded" false g.Planner.degraded
  | Error e -> Alcotest.failf "delays must not fail: %s" (Error.message e)

let () =
  Alcotest.run "chaos"
    [
      ( "soak",
        [
          Alcotest.test_case "typed outcomes only" `Quick test_soak_total;
          Alcotest.test_case "same seed, same outcome" `Quick
            test_soak_reproducible;
          Alcotest.test_case "no corrupted shared state" `Quick
            test_soak_leaves_clean_state;
          Alcotest.test_case "delays alone never degrade" `Quick
            test_delays_only_slow_down;
        ] );
    ]
