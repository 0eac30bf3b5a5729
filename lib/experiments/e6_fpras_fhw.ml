(* E6 — Theorem 16: FPRAS for CQs of bounded fractional hypertreewidth,
   strictly beyond Arenas et al.'s bounded hypertreewidth (Theorem 38).

   Three CQ families: an acyclic join (hw = 1, covered by Theorem 38), a
   path query with quantified middles (hw = 1), and the fractional
   triangle (fhw = 1.5 < hw = 2 — the family Theorem 16 adds). For each,
   over growing databases: exact count, the tree-automaton FPRAS estimate,
   relative error, automaton size, and the estimate from the Theorem 5
   FPTRAS on the same instance for comparison (CQs have no disequalities,
   so its oracle is colour-free). *)

module QF = Ac_workload.Query_families
module Dbgen = Ac_workload.Dbgen
module Fpras = Approxcount.Fpras
module Fptras = Approxcount.Fptras
module Exact = Approxcount.Exact

let families rng n =
  [
    ( "acyclic-join (hw 1)",
      QF.acyclic_join (),
      Dbgen.random_structure ~rng ~universe_size:n
        [ ("R", 2, 5 * n); ("S", 2, 5 * n); ("T", 2, 5 * n) ] );
    ( "path-3 (hw 1)",
      QF.path_endpoints 3,
      Dbgen.random_structure ~rng ~universe_size:n [ ("E", 2, 5 * n) ] );
    ( "frac-triangle (fhw 1.5)",
      QF.fractional_triangle (),
      Dbgen.random_structure ~rng ~universe_size:n
        [ ("E1", 2, 4 * n); ("E2", 2, 4 * n); ("E3", 2, 4 * n) ] );
  ]

let run fmt =
  let rng = Common.rng "e6" in
  let rows = ref [] in
  List.iter
    (fun n ->
      List.iter
        (fun (name, q, db) ->
          let exact, t_exact = Common.time (fun () -> Exact.by_join_projection q db) in
          let config =
            Ac_automata.Acjr.
              {
                sketch_size = 48;
                union_rounds = 48;
                rng = Random.State.make [| n |];
                budget = Ac_runtime.Budget.none;
              }
          in
          let stats =
            match Fpras.build q db with
            | None -> "0 states"
            | Some b ->
                Printf.sprintf "%d st / %d nodes" b.Fpras.num_states b.num_nodes
          in
          let est, t_fpras =
            (* the hand-sized config replaces the ε sizing *)
            Common.time (fun () ->
                Fpras.approx_count ~config
                  ~exec:(Ac_exec.Engine.sequential ~seed:n)
                  ~repetitions:1 ~eps:0.3 q db)
          in
          let err = Common.rel_err ~estimate:est ~truth:(float_of_int exact) in
          let r_fptras, t_fptras =
            Common.time (fun () ->
                Fptras.approx_count ~exec:(Common.engine rng) ~eps:0.3
                  ~delta:0.1 q db)
          in
          rows :=
            [
              name;
              string_of_int n;
              string_of_int exact;
              Common.f1 est;
              Common.f3 err;
              stats;
              Common.f1 r_fptras.Fptras.estimate;
              Common.f3 t_exact;
              Common.f3 t_fpras;
              Common.f3 t_fptras;
            ]
            :: !rows)
        (families rng n))
    [ 15; 30; 60 ];
  Common.table fmt
    ~title:
      "E6  Theorem 16: FPRAS via tree automata for bounded-fhw CQs (incl. fhw < hw)"
    ~header:
      [
        "query"; "n"; "exact"; "fpras"; "rel.err"; "automaton"; "fptras";
        "t_exact(s)"; "t_fpras(s)"; "t_fptras(s)";
      ]
    (List.rev !rows)

let experiment =
  {
    Common.id = "E6";
    claim = "Theorem 16: FPRAS for CQs of bounded fractional hypertreewidth";
    queries =
      [
        ("acyclic-join", QF.acyclic_join ());
        ("path-endpoints-3", QF.path_endpoints 3);
        ("fractional-triangle", QF.fractional_triangle ());
      ];
    run;
  }
