(* A1 — engine and budget ablations for the design choices DESIGN.md
   calls out (not a paper table; an implementation study).

   (a) Hom-engine ablation: the same DCQ instances counted with the
       tree-decomposition DP (Theorem 5's engine), the worst-case-optimal
       generic join (Theorem 13's stand-in) and the Direct
       disequality-aware join (no colour-coding, no width guarantee).
       All three must agree within tolerance; the costs differ.

   (b) Colour-budget ablation: the friends query with the colouring
       budget forced down — the base multiplier of the 4^{|Δ'|} schedule
       at 1 / 4 / 16 / 64 — showing how a starved budget turns into
       one-sided undercounting, which is exactly the failure mode the
       Lemma 22 budget is sized to avoid. *)

module QF = Ac_workload.Query_families
module Dbgen = Ac_workload.Dbgen
module Fptras = Approxcount.Fptras
module Exact = Approxcount.Exact
module Colour_oracle = Approxcount.Colour_oracle

let engines =
  [
    ("tree-dp", Colour_oracle.Tree_dp);
    ("generic", Colour_oracle.Generic);
    ("direct", Colour_oracle.Direct);
  ]

let run fmt =
  let rng = Common.rng "a1" in
  (* (a) engine ablation on two shapes *)
  let instances =
    [
      ( "friends n=150",
        QF.friends (),
        Dbgen.friends_database ~rng ~n:150 ~avg_degree:6.0 );
      ( "star-distinct n=100",
        QF.star_distinct 2,
        Dbgen.random_structure ~rng ~universe_size:100 [ ("E", 2, 400) ] );
    ]
  in
  let rows =
    List.concat_map
      (fun (name, q, db) ->
        let exact = Exact.by_join_projection q db in
        List.map
          (fun (ename, engine) ->
            let r, t =
              Common.time (fun () ->
                  Fptras.approx_count
                    ~exec:(Ac_exec.Engine.sequential ~seed:5)
                    ~engine ~eps:0.3 ~delta:0.1 q db)
            in
            [
              name;
              ename;
              string_of_int exact;
              Common.f1 r.Fptras.estimate;
              Common.f3
                (Common.rel_err ~estimate:r.Fptras.estimate
                   ~truth:(float_of_int exact));
              string_of_int r.oracle_calls;
              string_of_int r.hom_calls;
              Common.f3 t;
            ])
          engines)
      instances
  in
  Common.table fmt
    ~title:"A1a  Hom-engine ablation (same instances, three engines)"
    ~header:
      [ "instance"; "engine"; "exact"; "estimate"; "rel.err"; "oracle"; "hom"; "t(s)" ]
    rows;
  (* (b) colour-budget ablation, with the witness pre-pass DISABLED so the
     raw Lemma 22 colouring is what decides ambiguous boxes *)
  let q = QF.friends () in
  let db = Dbgen.friends_database ~rng ~n:100 ~avg_degree:6.0 in
  let exact = Exact.by_join_projection q db in
  let rows_b =
    List.map
      (fun base ->
        let r, t =
          Common.time (fun () ->
              Fptras.approx_count
                ~exec:(Ac_exec.Engine.sequential ~seed:7)
                ~rounds:base ~probe:false ~eps:0.3 ~delta:0.1 q db)
        in
        [
          string_of_int base;
          string_of_int exact;
          Common.f1 r.Fptras.estimate;
          Common.f3
            (Common.rel_err ~estimate:r.Fptras.estimate ~truth:(float_of_int exact));
          string_of_int r.hom_calls;
          Common.f3 t;
        ])
      [ 1; 4; 16; 64 ]
  in
  Common.table fmt
    ~title:
      "A1b  Colour-budget ablation (pre-pass off; base multiplier of the 4^{|Δ'|} schedule)"
    ~header:[ "base"; "exact"; "estimate"; "rel.err"; "hom"; "t(s)" ]
    rows_b

let experiment =
  {
    Common.id = "A1";
    claim = "Ablations: Hom engines and the Lemma 22 colouring budget";
    queries =
      [ ("friends", QF.friends ()); ("star-distinct-2", QF.star_distinct 2) ];
    run;
  }
