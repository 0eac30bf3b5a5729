(* E1 — Theorem 5: the FPTRAS for bounded-treewidth, bounded-arity ECQs.

   For three query shapes (the paper's equation (1) DCQ, a 2-star with
   distinct leaves, and an ECQ with a negated atom), over random databases
   of growing size and two accuracy targets, we report the exact count,
   the FPTRAS estimate, the observed relative error (which must stay
   within ε up to the confidence δ) and the oracle/homomorphism call
   counts (which must grow mildly with ‖D‖ — the FPT shape). *)

module QF = Ac_workload.Query_families
module Dbgen = Ac_workload.Dbgen
module Fptras = Approxcount.Fptras
module Exact = Approxcount.Exact

let queries rng n =
  [
    ("friends (eq.1)", QF.friends (), Dbgen.friends_database ~rng ~n ~avg_degree:6.0);
    ( "star-distinct k=2",
      QF.star_distinct 2,
      Dbgen.random_structure ~rng ~universe_size:n [ ("E", 2, 4 * n) ] );
    ( "triangle-negation",
      QF.triangle_negation (),
      Dbgen.random_structure ~rng ~universe_size:n [ ("E", 2, 3 * n) ] );
  ]

let run fmt =
  let rows = ref [] in
  let rng = Common.rng "e1" in
  List.iter
    (fun n ->
      List.iter
        (fun (name, q, db) ->
          let exact, t_exact =
            Common.time (fun () -> Exact.by_join_projection q db)
          in
          List.iter
            (fun epsilon ->
              let r, t =
                Common.time (fun () ->
                    Fptras.approx_count ~exec:(Common.engine rng) ~eps:epsilon
                      ~delta:0.1 q db)
              in
              let err =
                Common.rel_err ~estimate:r.Fptras.estimate
                  ~truth:(float_of_int exact)
              in
              rows :=
                [
                  name;
                  string_of_int n;
                  Printf.sprintf "%.2f" epsilon;
                  string_of_int exact;
                  Common.f1 r.Fptras.estimate;
                  Common.f3 err;
                  (if r.Fptras.exact then "exact" else Printf.sprintf "lvl %d" r.level);
                  string_of_int r.oracle_calls;
                  string_of_int r.hom_calls;
                  Common.f3 t_exact;
                  Common.f3 t;
                ]
                :: !rows)
            [ 0.5; 0.25 ])
        (queries rng n))
    [ 60; 120; 240 ];
  Common.table fmt
    ~title:
      "E1  Theorem 5 FPTRAS on ECQs (bounded tw & arity): accuracy and FPT cost"
    ~header:
      [
        "query"; "n"; "eps"; "exact"; "estimate"; "rel.err"; "mode"; "oracle";
        "hom"; "t_exact(s)"; "t_fptras(s)";
      ]
    (List.rev !rows)

let experiment =
  {
    Common.id = "E1";
    claim = "Theorem 5: FPTRAS for bounded-treewidth bounded-arity ECQs";
    queries =
      [
        ("friends", QF.friends ());
        ("star-distinct-2", QF.star_distinct 2);
        ("triangle-negation", QF.triangle_negation ());
      ];
    run;
  }
