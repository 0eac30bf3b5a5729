(* The (ε, δ) promise, checked statistically (Ac_experiments.Conformance):
   every estimator case runs under [trials] engine seeds against the
   exact count, and fails when the one-sided 95% Clopper–Pearson lower
   bound on its violation rate exceeds δ. The FPRAS grid is the one its
   sketch size κ(ε) is calibrated on; the FPTRAS cases must include a
   run the edge-count layer answered by sampling, not by enumeration. *)

module Conformance = Ac_experiments.Conformance

let delta = 0.1
let trials = 16

let test_cp_lower () =
  let check name want got = Alcotest.(check (float 1e-9)) name want got in
  check "no successes" 0.0 (Conformance.cp_lower ~trials:10 0);
  (* closed forms at x = 1 and x = trials *)
  check "one success" (1.0 -. Float.pow 0.95 0.1)
    (Conformance.cp_lower ~trials:10 1);
  check "all successes" (Float.pow 0.05 0.1) (Conformance.cp_lower ~trials:10 10);
  let bounds = List.init 11 (Conformance.cp_lower ~trials:10) in
  Alcotest.(check bool) "increasing in x" true
    (List.for_all2 ( < ) (List.filteri (fun i _ -> i < 10) bounds) (List.tl bounds))

let describe (r : Conformance.row) =
  Printf.sprintf
    "%s eps=%g%s: %d/%d violations, CP lower %.3f > delta %g (mean %.4f, max %.4f)"
    r.case.Conformance.name r.eps
    (match r.kappa with Some k -> Printf.sprintf " kappa=%d" k | None -> "")
    r.violations r.trials r.cp_lower r.delta r.mean_err r.max_err

let grid cases epss =
  List.concat_map
    (fun case ->
      List.map (fun eps -> Conformance.run ~eps ~delta ~trials case) epss)
    cases

let check_holds rows =
  match List.filter (fun r -> not (Conformance.holds r)) rows with
  | [] -> ()
  | bad ->
      Alcotest.failf "(eps, delta) promise refuted:\n%s"
        (String.concat "\n" (List.map describe bad))

let test_fpras () = check_holds (grid Conformance.fpras_cases [ 0.05; 0.25; 0.5 ])

let test_fptras () =
  let rows = grid Conformance.fptras_cases [ 0.05; 0.25 ] in
  check_holds rows;
  Alcotest.(check bool) "some run samples" true
    (List.exists (fun (r : Conformance.row) -> r.sampled > 0) rows)

let tests =
  [
    Alcotest.test_case "Clopper-Pearson lower bound" `Quick test_cp_lower;
    Alcotest.test_case "fpras keeps (eps, delta)" `Quick test_fpras;
    Alcotest.test_case "fptras keeps (eps, delta)" `Quick test_fptras;
  ]
