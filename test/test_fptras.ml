module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Fptras = Approxcount.Fptras
module Exact = Approxcount.Exact
module Colour_oracle = Approxcount.Colour_oracle

(* The three exact baselines agree on random ECQs. *)
let prop_exact_baselines_agree =
  QCheck2.Test.make ~count:150 ~name:"exact baselines agree"
    (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true)
    (fun (q, db) ->
      let a = Exact.brute_force q db in
      let b = Exact.by_join_projection q db in
      let c = Exact.by_free_enumeration q db in
      a = b && b = c)

(* Oracle-driven exact counting equals the baselines, for every engine. *)
let prop_oracle_exact engine_name engine =
  QCheck2.Test.make ~count:60
    ~name:(Printf.sprintf "exact via oracle (%s)" engine_name)
    QCheck2.Gen.(pair (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true) (int_range 0 10000))
    (fun ((q, db), seed) ->
      let expected = Exact.by_join_projection q db in
      let r =
        Fptras.exact_count_via_oracle
          ~rng:(Random.State.make [| seed |])
          ~engine ~rounds:48 q db
      in
      int_of_float r.Fptras.estimate = expected)

(* Full approximate pipeline: on these small instances the estimator takes
   its exact path, so the result must equal the truth. *)
let prop_approx_small_exact =
  QCheck2.Test.make ~count:60 ~name:"approx_count exact on small instances"
    QCheck2.Gen.(pair (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true) (int_range 0 10000))
    (fun ((q, db), seed) ->
      let expected = Exact.by_join_projection q db in
      let r =
        Fptras.approx_count
          ~exec:(Ac_exec.Engine.sequential ~seed)
          ~rounds:48 ~eps:0.25 ~delta:0.2 q db
      in
      r.Fptras.exact && int_of_float r.Fptras.estimate = expected)

let test_boolean_queries () =
  let q = Ecq.parse "ans() :- E(x, y), x != y" in
  let db_yes = Structure.of_facts ~universe_size:3 [ ("E", [| 0; 1 |]) ] in
  let db_no = Structure.of_facts ~universe_size:3 [ ("E", [| 0; 0 |]) ] in
  let exec = Ac_exec.Engine.sequential ~seed:9 in
  let count db =
    (Fptras.approx_count ~exec ~rounds:48 ~eps:0.3 ~delta:0.2 q db).Fptras.estimate
  in
  Alcotest.(check (float 1e-9)) "boolean yes" 1.0 (count db_yes);
  Alcotest.(check (float 1e-9)) "boolean no" 0.0 (count db_no)

let test_friends_medium_accuracy () =
  (* estimator path (answers > cap): accuracy within 2ε with a fixed seed *)
  let rng = Random.State.make [| 17 |] in
  let q = Ac_workload.Query_families.friends () in
  let db = Ac_workload.Dbgen.friends_database ~rng ~n:250 ~avg_degree:6.0 in
  let exact = float_of_int (Exact.by_join_projection q db) in
  let r =
    Fptras.approx_count ~exec:(Ac_exec.Engine.sequential ~seed:17) ~eps:0.2
      ~delta:0.1 q db
  in
  let err = Float.abs (r.Fptras.estimate -. exact) /. Float.max exact 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "relative error %.3f (est %.1f vs %f)" err r.Fptras.estimate exact)
    true (err <= 0.4)

let test_star_distinct_estimator_path () =
  let rng = Random.State.make [| 23 |] in
  let q = Ac_workload.Query_families.star_distinct 2 in
  let db =
    Ac_workload.Dbgen.random_structure ~rng ~universe_size:80 [ ("E", 2, 300) ]
  in
  let exact = float_of_int (Exact.by_join_projection q db) in
  let r =
    Fptras.approx_count ~exec:(Ac_exec.Engine.sequential ~seed:23) ~eps:0.25
      ~delta:0.2 q db
  in
  let err = Float.abs (r.Fptras.estimate -. exact) /. Float.max exact 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "star2 err %.3f (est %.1f vs %f, level %d)" err
       r.Fptras.estimate exact r.Fptras.level)
    true (err <= 0.5)

let test_zero_answers () =
  let q = Ecq.parse "ans(x) :- E(x, y), !E(x, y)" in
  let db = Structure.of_facts ~universe_size:3 [ ("E", [| 0; 1 |]) ] in
  let r =
    Fptras.approx_count ~exec:(Ac_exec.Engine.sequential ~seed:3) ~eps:0.3
      ~delta:0.2 q db
  in
  Alcotest.(check (float 1e-9)) "contradictory query" 0.0 r.Fptras.estimate

let test_engines_agree_exact_mode () =
  let q = Ac_workload.Query_families.triangle_negation () in
  let rng = Random.State.make [| 31 |] in
  let db = Ac_workload.Dbgen.random_structure ~rng ~universe_size:12 [ ("E", 2, 30) ] in
  let expected = Exact.by_join_projection q db in
  List.iter
    (fun engine ->
      let r =
        Fptras.approx_count
          ~exec:(Ac_exec.Engine.sequential ~seed:37)
          ~engine ~rounds:48 ~eps:0.3 ~delta:0.2 q db
      in
      Alcotest.(check int) "engine agrees" expected (int_of_float r.Fptras.estimate))
    [ Colour_oracle.Tree_dp; Colour_oracle.Generic; Colour_oracle.Direct ]

let tests =
  [
    Alcotest.test_case "boolean queries" `Quick test_boolean_queries;
    Alcotest.test_case "zero answers" `Quick test_zero_answers;
    Alcotest.test_case "engines agree (exact mode)" `Quick test_engines_agree_exact_mode;
    Alcotest.test_case "friends medium accuracy" `Slow test_friends_medium_accuracy;
    Alcotest.test_case "star-distinct estimator path" `Slow test_star_distinct_estimator_path;
    QCheck_alcotest.to_alcotest prop_exact_baselines_agree;
    QCheck_alcotest.to_alcotest (prop_oracle_exact "tree_dp" Colour_oracle.Tree_dp);
    QCheck_alcotest.to_alcotest (prop_oracle_exact "generic" Colour_oracle.Generic);
    QCheck_alcotest.to_alcotest (prop_oracle_exact "direct" Colour_oracle.Direct);
    QCheck_alcotest.to_alcotest prop_approx_small_exact;
  ]
