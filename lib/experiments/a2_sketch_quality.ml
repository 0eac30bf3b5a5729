(* A2 — FPRAS sketch-quality ablation (DESIGN.md substitution 3).

   The ACJR engine's accuracy is governed by two knobs: the per-(node,
   state) sample-pool size and the Karp–Luby rounds per union estimate.
   On a fixed acyclic-join instance with known exact count, sweep both
   together (κ = rounds ∈ {4, 12, 48, 96}) and report the observed error
   over five seeds — the error should shrink roughly like 1/√κ, and the
   cost grow linearly. Beside the sweep, the κ(ε) the FPRAS picks for a
   few accuracies ([Acjr.sketch_size_for]). *)

module QF = Ac_workload.Query_families
module Dbgen = Ac_workload.Dbgen
module Fpras = Approxcount.Fpras
module Acjr = Ac_automata.Acjr
module Exact = Approxcount.Exact

let run fmt =
  let rng = Common.rng "a2" in
  let q = QF.acyclic_join () in
  let db =
    Dbgen.random_structure ~rng ~universe_size:25
      [ ("R", 2, 120); ("S", 2, 120); ("T", 2, 120) ]
  in
  let exact = float_of_int (Exact.by_join_projection q db) in
  let rows =
    List.map
      (fun kappa ->
        let errors, time =
          Common.time (fun () ->
              List.map
                (fun seed ->
                  let config =
                    {
                      Acjr.sketch_size = kappa;
                      union_rounds = kappa;
                      rng = Random.State.make [| seed |];
                      budget = Ac_runtime.Budget.none;
                    }
                  in
                  (* the hand-sized config replaces the ε sizing *)
                  let est =
                    Fpras.approx_count ~config
                      ~exec:(Ac_exec.Engine.sequential ~seed)
                      ~repetitions:1 ~eps:0.25 q db
                  in
                  Common.rel_err ~estimate:est ~truth:exact)
                [ 1; 2; 3; 4; 5 ])
        in
        let mean = List.fold_left ( +. ) 0.0 errors /. 5.0 in
        let worst = List.fold_left Float.max 0.0 errors in
        [
          string_of_int kappa;
          Common.f1 exact;
          Common.f3 mean;
          Common.f3 worst;
          Common.f3 (time /. 5.0);
        ])
      [ 4; 12; 48; 96 ]
  in
  Common.table fmt
    ~title:"A2  ACJR sketch-quality ablation (pool size = union rounds = κ)"
    ~header:[ "kappa"; "exact"; "mean rel.err"; "worst rel.err"; "t/run(s)" ]
    rows;
  Common.table fmt
    ~title:
      (Printf.sprintf "A2  kappa(eps) = max %d ceil(%g/eps^2) picked by the FPRAS"
         Acjr.sketch_floor Acjr.sketch_constant)
    ~header:[ "eps"; "kappa(eps)" ]
    (List.map
       (fun eps ->
         [ Printf.sprintf "%g" eps; string_of_int (Acjr.sketch_size_for ~eps) ])
       [ 0.5; 0.25; 0.1; 0.05; 0.01 ])

let experiment =
  {
    Common.id = "A2";
    claim = "Ablation: ACJR sketch size vs FPRAS accuracy and cost";
    queries = [ ("acyclic-join", QF.acyclic_join ()) ];
    run;
  }
