(* E3 — the lower-bound shape (Observations 9/15 + Theorems 8/14): exact
   counting scales like n^{Θ(tw)} while the approximation stays mild.

   Clique queries K_k have treewidth k - 1. Two sweeps over G(n, p):
   (a) growing k at fixed n — exact enumeration cost explodes with the
       treewidth, the FPTRAS decision-based cost grows far slower;
   (b) growing n at fixed k — both are polynomial in the database, the
       fixed-parameter shape of Theorem 5.

   (A lower bound cannot be "run"; what we regenerate is its observable
   consequence — who hits the wall and in which variable.) *)

module QF = Ac_workload.Query_families
module G = Ac_workload.Graph
module Fptras = Approxcount.Fptras
module Exact = Approxcount.Exact

let db_of rng n p = G.to_structure (G.random_gnp ~rng n p)

let row rng q db label =
  let exact, t_exact = Common.time (fun () -> Exact.by_join_projection q db) in
  let r, t_apx =
    Common.time (fun () ->
        Fptras.approx_count ~exec:(Common.engine rng) ~eps:0.5 ~delta:0.2 q db)
  in
  let err =
    Common.rel_err ~estimate:r.Fptras.estimate ~truth:(float_of_int exact)
  in
  label
  @ [
      string_of_int exact;
      Common.f1 r.Fptras.estimate;
      Common.f3 err;
      string_of_int r.hom_calls;
      Common.f3 t_exact;
      Common.f3 t_apx;
    ]

let run fmt =
  let rng = Common.rng "e3" in
  (* sweep (a): treewidth grows, database fixed *)
  let rows_k =
    List.map
      (fun k ->
        let q = QF.clique_query ~num_free:2 k in
        let db = db_of rng 46 0.45 in
        row rng q db [ string_of_int k; string_of_int (k - 1); "46" ])
      [ 3; 4; 5 ]
  in
  Common.table fmt
    ~title:"E3a  exact-counting wall: clique query K_k, growing treewidth"
    ~header:
      [
        "k"; "tw"; "n"; "exact"; "estimate"; "rel.err"; "hom"; "t_exact(s)";
        "t_fptras(s)";
      ]
    rows_k;
  (* sweep (b): database grows, treewidth fixed *)
  let rows_n =
    List.map
      (fun n ->
        let q = QF.clique_query ~num_free:2 4 in
        let db = db_of rng n 0.4 in
        row rng q db [ "4"; "3"; string_of_int n ])
      [ 20; 40; 80 ]
  in
  Common.table fmt
    ~title:"E3b  fixed-parameter shape: K_4 query, growing database"
    ~header:
      [
        "k"; "tw"; "n"; "exact"; "estimate"; "rel.err"; "hom"; "t_exact(s)";
        "t_fptras(s)";
      ]
    rows_n

let experiment =
  {
    Common.id = "E3";
    claim =
      "Observations 9/15 shape: exact counting pays n^{Θ(tw)}, the FPTRAS stays FPT";
    queries =
      [ ("clique-3", QF.clique_query ~num_free:2 3);
        ("clique-4", QF.clique_query ~num_free:2 4) ];
    run;
  }
