module Budget = Ac_runtime.Budget
module Error = Ac_runtime.Error
module Chaos = Ac_runtime.Chaos
module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Planner = Approxcount.Planner
module Exact = Approxcount.Exact
module Cost = Ac_analysis.Cost
module Cardinality = Ac_analysis.Cardinality
module Classify = Ac_analysis.Classify
module Ladder = Ac_analysis.Ladder
module Governed = Ac_test_support.Governed

(* ---------- budgets ---------- *)

let test_budget_work_trip () =
  let b = Budget.create ~max_ticks:1000 ~check_every:16 () in
  let trip =
    match
      for _ = 1 to 10_000 do
        Budget.tick b
      done
    with
    | () -> Alcotest.fail "work ceiling never tripped"
    | exception Budget.Budget_exceeded tr -> tr
  in
  (match trip.Budget.limit with
  | Budget.Work -> ()
  | l -> Alcotest.failf "wrong limit: %s" (Budget.limit_name l));
  Alcotest.(check bool) "tripped near the ceiling" true (trip.Budget.ticks <= 1100);
  Alcotest.(check bool) "tripped is set" true (Budget.tripped b <> None);
  (* sticky: the very next tick raises again, no grace period *)
  (match Budget.tick b with
  | () -> Alcotest.fail "tripped budget ticked through"
  | exception Budget.Budget_exceeded _ -> ());
  (* ... and so does an explicit check *)
  match Budget.check b with
  | () -> Alcotest.fail "tripped budget checked through"
  | exception Budget.Budget_exceeded _ -> ()

let test_budget_wall_trip () =
  let b = Budget.create ~deadline_ms:5.0 ~check_every:1 () in
  match
    for _ = 1 to 1_000 do
      Unix.sleepf 0.001;
      Budget.tick b
    done
  with
  | () -> Alcotest.fail "deadline never tripped"
  | exception Budget.Budget_exceeded tr -> (
      match tr.Budget.limit with
      | Budget.Wall_clock -> ()
      | l -> Alcotest.failf "wrong limit: %s" (Budget.limit_name l))

let test_budget_heap_trip () =
  (* park a few MB on the major heap so a 1 MB watermark must trip on
     the first full check *)
  let ballast = Array.make (4 * 1024 * 1024 / 8) 0 in
  let b = Budget.create ~max_heap_mb:1 ~check_every:1 () in
  match Budget.tick b with
  | () -> Alcotest.fail "heap watermark never tripped"
  | exception Budget.Budget_exceeded tr -> (
      match tr.Budget.limit with
      | Budget.Heap -> ()
      | l -> Alcotest.failf "wrong limit: %s" (Budget.limit_name l));
      ignore (Sys.opaque_identity ballast)

let test_budget_cancel () =
  let b = Budget.create () in
  Alcotest.(check bool) "unarmed but cancellable" false (Budget.limited b);
  Budget.cancel ~note:"user hit ^C" b;
  (match Budget.tick b with
  | () -> Alcotest.fail "cancelled budget ticked through"
  | exception Budget.Budget_exceeded tr ->
      (match tr.Budget.limit with
      | Budget.Cancelled -> ()
      | l -> Alcotest.failf "wrong limit: %s" (Budget.limit_name l));
      Alcotest.(check string) "note survives" "user hit ^C" tr.Budget.note);
  (* the shared unlimited budget must be un-cancellable *)
  match Budget.cancel Budget.none with
  | () -> Alcotest.fail "cancelling Budget.none should raise"
  | exception Invalid_argument _ -> ()

let test_budget_none_is_free () =
  for _ = 1 to 100_000 do
    Budget.tick Budget.none
  done;
  Alcotest.(check bool) "unlimited" false (Budget.limited Budget.none)

(* [Budget.charge t k] against [k] calls to [Budget.tick] on a twin
   budget: the same raise or none, the same final [ticks], and the same
   trip. Pre-ticks may trip the budget first, and a forced budget must
   raise on the charge's first tick. Half the charges end within a tick
   of the first check that can trip (the first multiple of the period
   above [max_ticks]), where an off-by-one at either end would show. *)
let prop_charge_is_ticks =
  QCheck2.Test.make ~count:500 ~name:"budget: charge k = k ticks"
    QCheck2.Gen.(
      quad (int_range 0 3000)
        (oneofl [ 1; 2; 16; 512 ])
        (int_range 0 1000) bool
      >>= fun (max_ticks, check_every, pre, forced) ->
      let trip_at = ((max_ticks / check_every) + 1) * check_every in
      oneof [ int_range 0 2000; map (fun d -> trip_at - pre + d) (int_range (-1) 1) ]
      >|= fun k -> (max_ticks, check_every, (pre, max 0 (min 2000 k)), forced))
    (fun (max_ticks, check_every, (pre, k), forced) ->
      let attempt f =
        match f () with
        | () -> None
        | exception Budget.Budget_exceeded tr ->
            Some (tr.Budget.limit, tr.Budget.ticks)
      in
      let twin () =
        let b = Budget.create ~max_ticks ~check_every () in
        ignore
          (attempt (fun () ->
               for _ = 1 to pre do
                 Budget.tick b
               done));
        if forced then Budget.exhaust b;
        b
      in
      let charged = twin () and ticked = twin () in
      let by_charge = attempt (fun () -> Budget.charge charged k) in
      let by_ticks =
        attempt (fun () ->
            for _ = 1 to k do
              Budget.tick ticked
            done)
      in
      by_charge = by_ticks && Budget.ticks charged = Budget.ticks ticked)

let test_budget_slice () =
  (* slicing an unlimited budget is the identity *)
  Alcotest.(check bool) "slice of none is none" true
    (Budget.slice Budget.none == Budget.none);
  let parent = Budget.create ~max_ticks:1000 ~check_every:16 () in
  let child = Budget.slice ~fraction:0.5 ~label:"child" parent in
  (match
     for _ = 1 to 10_000 do
       Budget.tick child
     done
   with
  | () -> Alcotest.fail "child never tripped"
  | exception Budget.Budget_exceeded tr ->
      Alcotest.(check string) "child label" "child" tr.Budget.label;
      Alcotest.(check bool) "child got about half" true (tr.Budget.ticks <= 600));
  (* a tripped child does not poison the parent *)
  Alcotest.(check bool) "parent untripped" true (Budget.tripped parent = None);
  Budget.check parent;
  Budget.absorb parent child;
  Alcotest.(check bool) "absorb reports child work" true
    (Budget.ticks parent >= 500);
  (* slicing a tripped budget yields an immediately-tripping child *)
  let doomed = Budget.create ~max_ticks:0 ~check_every:1 () in
  (try Budget.tick doomed with Budget.Budget_exceeded _ -> ());
  let d = Budget.slice doomed in
  match Budget.tick d with
  | () -> Alcotest.fail "slice of a tripped budget should trip at once"
  | exception Budget.Budget_exceeded _ -> ()

(* ---------- typed errors ---------- *)

let test_error_codes_distinct () =
  let errors =
    [
      Error.Parse { source = "q"; msg = "m" };
      Error.Io { file = "f"; msg = "m" };
      Error.Signature_mismatch "m";
      Error.Budget
        {
          Budget.limit = Budget.Work;
          label = "b";
          elapsed_ms = 0.0;
          ticks = 0;
          note = "n";
        };
      Error.Numeric_overflow "m";
      Error.Fault "m";
      Error.Overloaded "m";
      Error.Internal "m";
    ]
  in
  let codes = List.map Error.exit_code errors in
  let classes = List.map Error.class_name errors in
  Alcotest.(check int) "codes distinct" (List.length errors)
    (List.length (List.sort_uniq compare codes));
  Alcotest.(check int) "classes distinct" (List.length errors)
    (List.length (List.sort_uniq compare classes));
  List.iter
    (fun c -> Alcotest.(check bool) "codes in 10..17" true (c >= 10 && c <= 17))
    codes

let test_error_guard () =
  (match Error.guard (fun () -> 7) with
  | Ok 7 -> ()
  | _ -> Alcotest.fail "guard should pass values through");
  (match Error.guard (fun () -> failwith "boom") with
  | Error (Error.Internal _) -> ()
  | _ -> Alcotest.fail "bare Failure becomes Internal");
  (match Error.guard ~source:"q" (fun () -> failwith "boom") with
  | Error (Error.Parse { source = "q"; _ }) -> ()
  | _ -> Alcotest.fail "Failure with a source becomes Parse");
  let b = Budget.create ~max_ticks:0 ~check_every:1 () in
  match Error.guard (fun () -> Budget.tick b) with
  | Error (Error.Budget _) -> ()
  | _ -> Alcotest.fail "Budget_exceeded becomes Error.Budget"

(* ---------- chaos ---------- *)

let test_chaos_deterministic () =
  let run () =
    let c = Chaos.create ~p_fail:0.2 ~p_delay:0.0 ~seed:99 () in
    let events = ref [] in
    for i = 1 to 50 do
      match Chaos.guard c "site" with
      | () -> ()
      | exception Error.E (Error.Fault _) -> events := i :: !events
    done;
    !events
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "some faults fired" true (a <> []);
  Alcotest.(check (list int)) "same seed, same stream" a b

let test_chaos_plan () =
  let c = Chaos.create ~plan:[ (3, Chaos.Fail "planned") ] ~seed:1 () in
  for i = 1 to 5 do
    match Chaos.guard c "s" with
    | () ->
        if i = 3 then Alcotest.fail "planned fault did not fire at call 3"
    | exception Error.E (Error.Fault _) ->
        if i <> 3 then Alcotest.failf "fault fired at call %d, wanted 3" i
  done;
  Alcotest.(check int) "calls counted" 5 (Chaos.calls c);
  match Chaos.history c with
  | [ (3, "s", _) ] -> ()
  | h -> Alcotest.failf "unexpected history of length %d" (List.length h)

let test_chaos_exhaust () =
  let b = Budget.create () in
  let c = Chaos.create ~plan:[ (1, Chaos.Exhaust) ] ~budget:b ~seed:1 () in
  (match Chaos.guard c "s" with
  | () -> Alcotest.fail "exhaust did not trip"
  | exception Budget.Budget_exceeded tr -> (
      match tr.Budget.limit with
      | Budget.Work -> ()
      | l -> Alcotest.failf "wrong limit: %s" (Budget.limit_name l)));
  Alcotest.(check bool) "budget stays tripped" true (Budget.tripped b <> None)

(* ---------- governed execution ---------- *)

(* small DCQ instance where every rung terminates fast *)
let little_query () = Ecq.parse "ans(x) :- E(x, y), E(x, z), y != z"

let little_db () =
  Structure.of_facts ~universe_size:8
    [
      ("E", [| 0; 1 |]); ("E", [| 0; 2 |]); ("E", [| 1; 2 |]);
      ("E", [| 2; 3 |]); ("E", [| 3; 4 |]); ("E", [| 3; 5 |]);
      ("E", [| 5; 6 |]); ("E", [| 6; 7 |]); ("E", [| 6; 0 |]);
    ]

let governed ?chaos ?budget ?strict ?(seed = 11) () =
  let exec = Ac_exec.Engine.make ~jobs:1 ~seed () in
  Governed.count ~exec ?strict ?chaos ?budget ~eps:0.3 ~delta:0.2
    (little_query ()) (little_db ())

(* the cost analysis priced at the governed runs' targets: its chosen
   rung heads their ladder *)
let little_cost () =
  let q = little_query () and db = little_db () in
  Cost.analyze ~eps:0.3 ~delta:0.2 ~stats:(Cardinality.of_structure db) q
    (Classify.classify q)

let ok = function
  | Ok g -> g
  | Error e -> Alcotest.failf "governed failed: %s" (Error.message e)

let test_governed_no_faults () =
  let g = ok (governed ()) in
  Alcotest.(check string) "chosen rung"
    (Cost.rung_name (Cost.chosen (little_cost ())))
    (Planner.rung_name g.Planner.rung);
  Alcotest.(check bool) "not degraded" false g.Planner.degraded;
  Alcotest.(check bool) "guarantee holds" true g.Planner.guarantee

(* every ladder step fires, driven by positional fault plans: after i
   injected failures ladder step i answers *)
let test_governed_every_rung () =
  let exact = Exact.by_join_projection (little_query ()) (little_db ()) in
  let ladder = Ladder.build ~eps:0.3 ~delta:0.2 (little_cost ()) in
  let fail_first n =
    List.init n (fun i -> (i + 1, Chaos.Fail "injected"))
  in
  List.iteri
    (fun i (step : Ladder.step) ->
      let chaos = Chaos.create ~plan:(fail_first i) ~seed:5 () in
      let g = ok (governed ~chaos ()) in
      Alcotest.(check string)
        (Printf.sprintf "rung after %d failures" i)
        (Cost.rung_name step.Ladder.rung)
        (Planner.rung_name g.Planner.rung);
      Alcotest.(check (float 1e-12)) "step eps" step.Ladder.eps
        g.Planner.eps_used;
      Alcotest.(check bool) "degraded" (i > 0) g.Planner.degraded;
      Alcotest.(check int) "attempts recorded" i
        (List.length g.Planner.attempts);
      (* the partial rung has no budget pressure here, so it completes
         the enumeration: the count is exact and the guarantee holds *)
      Alcotest.(check bool) "guarantee" true g.Planner.guarantee;
      if step.Ladder.rung = Cost.Partial then
        Alcotest.(check (float 0.0)) "partial completed exactly"
          (float_of_int exact) g.Planner.estimate)
    ladder;
  (* every step down -> the error surfaces *)
  let chaos = Chaos.create ~plan:(fail_first (List.length ladder)) ~seed:5 () in
  match governed ~chaos () with
  | Error (Error.Fault _) -> ()
  | Error e -> Alcotest.failf "wrong error class: %s" (Error.class_name e)
  | Ok _ -> Alcotest.fail "chain should be exhausted"

let test_governed_strict () =
  let chaos = Chaos.create ~plan:[ (1, Chaos.Fail "injected") ] ~seed:5 () in
  match governed ~chaos ~strict:true () with
  | Error (Error.Fault _) -> ()
  | Error e -> Alcotest.failf "wrong error class: %s" (Error.class_name e)
  | Ok _ -> Alcotest.fail "strict mode must not degrade"

(* a real (not injected) budget trip: a tick ceiling small enough that the
   approximation rungs cannot finish, so the partial sweep answers (the
   whole governed run fits in ~60 ticks since the probe pushdown, so the
   ceiling is tight and checked every tick) *)
let test_governed_real_budget () =
  let budget = Budget.create ~max_ticks:8 ~check_every:1 () in
  let g = ok (governed ~budget ()) in
  Alcotest.(check bool) "degraded" true g.Planner.degraded;
  Alcotest.(check bool) "estimate is sane" true
    (Float.is_finite g.Planner.estimate && g.Planner.estimate >= 0.0);
  if not g.Planner.guarantee then
    Alcotest.(check string) "no guarantee only from the partial rung" "partial"
      (Planner.rung_name g.Planner.rung)

(* cancellation mid-enumeration must leave no corrupted state: a partial
   sweep under a tripped budget, then a fresh full run, must agree with a
   run that was never interrupted *)
let test_cancellation_leaves_clean_state () =
  let q = little_query () and db = little_db () in
  let before = Exact.by_join_projection q db in
  let b = Budget.create ~max_ticks:5 ~check_every:1 () in
  let partial, completed = Exact.partial_count ~budget:b q db in
  Alcotest.(check bool) "interrupted" false completed;
  Alcotest.(check bool) "partial is a lower bound" true
    (partial >= 0 && partial <= before);
  let after = Exact.by_join_projection q db in
  Alcotest.(check int) "state not corrupted" before after;
  let cancelled = Budget.create () in
  Budget.cancel cancelled;
  let _, completed = Exact.partial_count ~budget:cancelled q db in
  Alcotest.(check bool) "cancelled run reports incomplete" false completed;
  Alcotest.(check int) "still not corrupted" before
    (Exact.by_join_projection q db)

let test_count_result_signature () =
  let q = little_query () in
  let bad_db = Structure.of_facts ~universe_size:4 [ ("F", [| 0; 1 |]) ] in
  let exec = Ac_exec.Engine.make ~jobs:1 ~seed:1 () in
  (match
     Governed.count ~exec ~strict:true ~eps:0.3 ~delta:0.2 q bad_db
   with
  | Error (Error.Signature_mismatch _) -> ()
  | Error e -> Alcotest.failf "wrong error class: %s" (Error.class_name e)
  | Ok _ -> Alcotest.fail "incompatible signature accepted");
  match Governed.count ~exec ~eps:0.3 ~delta:0.2 q bad_db with
  | Error (Error.Signature_mismatch _) -> ()
  | _ -> Alcotest.fail "governed must reject an incompatible signature too"

let test_count_result_budget_error () =
  let b = Budget.create ~max_ticks:8 ~check_every:1 () in
  match governed ~budget:b ~strict:true ~seed:1 () with
  | Error (Error.Budget tr) -> (
      match tr.Budget.limit with
      | Budget.Work -> ()
      | l -> Alcotest.failf "wrong limit: %s" (Budget.limit_name l))
  | Error e -> Alcotest.failf "wrong error class: %s" (Error.class_name e)
  | Ok _ -> Alcotest.fail "8 ticks cannot be enough for the FPTRAS"

let tests =
  [
    Alcotest.test_case "budget: work ceiling trips and sticks" `Quick
      test_budget_work_trip;
    Alcotest.test_case "budget: wall-clock deadline trips" `Quick
      test_budget_wall_trip;
    Alcotest.test_case "budget: heap watermark trips" `Quick
      test_budget_heap_trip;
    Alcotest.test_case "budget: cooperative cancellation" `Quick
      test_budget_cancel;
    Alcotest.test_case "budget: Budget.none never trips" `Quick
      test_budget_none_is_free;
    Alcotest.test_case "budget: slices are isolated, absorbed" `Quick
      test_budget_slice;
    QCheck_alcotest.to_alcotest prop_charge_is_ticks;
    Alcotest.test_case "error: classes and exit codes are distinct" `Quick
      test_error_codes_distinct;
    Alcotest.test_case "error: guard maps exceptions" `Quick test_error_guard;
    Alcotest.test_case "chaos: seeded stream is deterministic" `Quick
      test_chaos_deterministic;
    Alcotest.test_case "chaos: positional plan fires exactly" `Quick
      test_chaos_plan;
    Alcotest.test_case "chaos: exhaust trips the attached budget" `Quick
      test_chaos_exhaust;
    Alcotest.test_case "governed: planned rung, no faults" `Quick
      test_governed_no_faults;
    Alcotest.test_case "governed: every fallback rung fires" `Quick
      test_governed_every_rung;
    Alcotest.test_case "governed: strict fails fast" `Quick
      test_governed_strict;
    Alcotest.test_case "governed: real budget trip degrades" `Quick
      test_governed_real_budget;
    Alcotest.test_case "cancellation leaves no corrupted state" `Quick
      test_cancellation_leaves_clean_state;
    Alcotest.test_case "count_result: signature mismatch is typed" `Quick
      test_count_result_signature;
    Alcotest.test_case "count_result: budget trip is typed" `Quick
      test_count_result_budget_error;
  ]
