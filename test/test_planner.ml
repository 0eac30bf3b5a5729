module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Planner = Approxcount.Planner
module Ucq = Approxcount.Ucq
module Exact = Approxcount.Exact
module Hom = Ac_hom.Hom
module Classify = Ac_analysis.Classify
module Classification = Ac_analysis.Classification
module Rung = Ac_analysis.Rung

(* ---------- planner ---------- *)

let regime text = (Classify.classify (Ecq.parse text)).Classification.regime

let test_plan_classification () =
  let check name text expected =
    if regime text <> expected then Alcotest.fail name
  in
  check "CQ -> FPRAS" "ans(x) :- E(x, y), E(y, z)" Rung.Fpras;
  check "DCQ small arity -> tree-dp" "ans(x) :- E(x, y), E(x, z), y != z" Rung.Tree_dp;
  check "ECQ -> tree-dp" "ans(x) :- E(x, y), !E(y, x)" Rung.Tree_dp

let test_plan_wide_dcq_generic () =
  let q = Ac_workload.Query_families.wide_path ~k:3 ~arity:5 () in
  if (Classify.classify q).Classification.regime <> Rung.Generic_join then
    Alcotest.fail "high-arity DCQ should use the generic engine"

let test_planner_count_dispatch () =
  let db =
    Structure.of_facts ~universe_size:6
      [ ("E", [| 0; 1 |]); ("E", [| 1; 2 |]); ("E", [| 0; 2 |]); ("E", [| 3; 4 |]) ]
  in
  let count q =
    match
      Ac_test_support.Governed.count
        ~exec:(Ac_exec.Engine.make ~jobs:1 ~seed:3 ())
        ~strict:true ~eps:0.3 ~delta:0.2 q db
    with
    | Ok g -> g
    | Error e -> Alcotest.failf "count failed: %s" (Ac_runtime.Error.message e)
  in
  (* CQ through the FPRAS *)
  let cq = Ecq.parse "ans(x) :- E(x, y), E(y, z)" in
  let g = count cq in
  Alcotest.(check bool) "fpras path" true
    ((Classify.classify cq).Classification.regime = Rung.Fpras);
  Alcotest.(check string) "fpras rung" "fpras" (Planner.rung_name g.Planner.rung);
  let exact = float_of_int (Exact.by_join_projection cq db) in
  Alcotest.(check bool) "fpras close" true
    (Float.abs (g.Planner.estimate -. exact) /. exact < 0.4);
  (* DCQ through the FPTRAS: small instance, exact path *)
  let dcq = Ecq.parse "ans(x) :- E(x, y), E(x, z), y != z" in
  Alcotest.(check (float 1e-9)) "fptras exact-path value"
    (float_of_int (Exact.by_join_projection dcq db))
    (count dcq).Planner.estimate

(* ---------- UCQ ---------- *)

let test_ucq_make_and_parse () =
  let u = Ucq.parse "ans(x) :- E(x, y); ans(x) :- R(x, y)" in
  Alcotest.(check int) "two disjuncts" 2 (List.length (Ucq.disjuncts u));
  Alcotest.(check int) "arity" 1 (Ucq.num_free u);
  (match Ucq.make [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty union");
  match Ucq.make [ Ecq.parse "ans(x) :- E(x, y)"; Ecq.parse "ans(x, y) :- E(x, y)" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "arity mismatch"

let test_ucq_counts () =
  let db =
    Structure.of_facts ~universe_size:5
      [ ("E", [| 0; 1 |]); ("E", [| 1; 2 |]); ("R", [| 1; 0 |]); ("R", [| 3; 0 |]) ]
  in
  let u = Ucq.parse "ans(x) :- E(x, y); ans(x) :- R(x, y)" in
  Alcotest.(check int) "exact union" 3 (Ucq.exact_count u db);
  Alcotest.(check bool) "member" true (Ucq.is_answer u db [| 3 |]);
  Alcotest.(check bool) "non member" false (Ucq.is_answer u db [| 2 |]);
  let est =
    Ucq.approx_count
      ~exec:(Ac_exec.Engine.sequential ~seed:7)
      ~kl_rounds:100 ~eps:0.3 ~delta:0.2 u db
  in
  Alcotest.(check bool)
    (Printf.sprintf "approx union (got %.2f)" est)
    true
    (Float.abs (est -. 3.0) < 1.2)

(* ---------- cores ---------- *)

let sym_edges edges n =
  Structure.of_facts ~universe_size:n
    (List.concat_map (fun (a, b) -> [ ("E", [| a; b |]); ("E", [| b; a |]) ]) edges)

let test_core_even_cycle () =
  (* C4 retracts to a single (symmetric) edge *)
  let c4 = sym_edges [ (0, 1); (1, 2); (2, 3); (3, 0) ] 4 in
  let core = Hom.core c4 in
  Alcotest.(check int) "core size" 2 (Structure.universe_size core);
  Alcotest.(check bool) "core is core" true (Hom.is_core core)

let test_core_clique () =
  let k3 = sym_edges [ (0, 1); (1, 2); (0, 2) ] 3 in
  Alcotest.(check bool) "K3 is its own core" true (Hom.is_core k3);
  Alcotest.(check int) "untouched" 3 (Structure.universe_size (Hom.core k3))

let test_core_odd_cycle_with_pendant () =
  (* C5 plus a pendant vertex: the pendant folds into the cycle *)
  let g = sym_edges [ (0, 1); (1, 2); (2, 3); (3, 4); (4, 0); (0, 5) ] 6 in
  let core = Hom.core g in
  Alcotest.(check int) "pendant folded" 5 (Structure.universe_size core);
  Alcotest.(check bool) "C5 core" true (Hom.is_core core)

let prop_core_hom_equivalent =
  QCheck2.Test.make ~count:50 ~name:"core is hom-equivalent to the original"
    QCheck2.Gen.(pair (int_range 2 4) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = Ac_workload.Graph.random_gnp ~rng n 0.5 in
      let s = Ac_workload.Graph.to_structure g in
      let c = Hom.core s in
      let decide inst = Hom.decide (Hom.prepare ~strategy:Hom.Backtracking inst) () in
      Hom.is_core c
      && decide { Hom.source = s; target = c }
      && decide { Hom.source = c; target = s })

(* ---------- DLM edge sampler ---------- *)

let test_sample_edge () =
  let space = Ac_dlm.Partite.space [| 6; 6 |] in
  let edges = [ [| 0; 0 |]; [| 1; 2 |]; [| 5; 5 |] ] in
  let oracle ~rng:_ parts =
    not
      (List.exists
         (fun e ->
           Array.for_all Fun.id
             (Array.mapi (fun i v -> Array.exists (( = ) v) parts.(i)) e))
         edges)
  in
  let rng = Random.State.make [| 9 |] in
  let seen = Hashtbl.create 4 in
  for _ = 1 to 30 do
    match Ac_dlm.Edge_count.sample_edge ~rng ~epsilon:0.3 ~delta:0.2 space oracle with
    | Some e ->
        Alcotest.(check bool) "sampled a real edge" true
          (List.exists (fun f -> f = e) edges);
        Hashtbl.replace seen (Array.to_list e) ()
    | None -> Alcotest.fail "expected an edge"
  done;
  Alcotest.(check bool) "diversity" true (Hashtbl.length seen >= 2);
  (* empty hypergraph *)
  Alcotest.(check bool) "empty" true
    (Ac_dlm.Edge_count.sample_edge ~rng ~epsilon:0.3 ~delta:0.2 space
       (fun ~rng:_ _ -> true)
    = None)

let test_sample_dlm_query_level () =
  let q = Ac_workload.Query_families.friends () in
  let db =
    Structure.of_facts ~universe_size:4
      [ ("F", [| 0; 1 |]); ("F", [| 0; 2 |]); ("F", [| 3; 1 |]); ("F", [| 3; 2 |]) ]
  in
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 5 do
    match
      Approxcount.Sampling.sample_dlm ~rng ~rounds:32 ~eps:0.3 ~delta:0.2 q db
    with
    | None -> Alcotest.fail "expected a sample"
    | Some tau -> Alcotest.(check bool) "valid answer" true (Exact.is_answer q db tau)
  done

let test_restrict () =
  let space = Ac_dlm.Partite.space [| 4; 4 |] in
  let oracle ~rng:_ parts =
    (* edge-free unless class 0 keeps value 3 and class 1 keeps value 1 *)
    not (Array.exists (( = ) 3) parts.(0) && Array.exists (( = ) 1) parts.(1))
  in
  let space', oracle' =
    Ac_dlm.Edge_count.restrict space [| [| 2; 3 |]; [| 1 |] |] oracle
  in
  Alcotest.(check int) "restricted sizes" 3 (Ac_dlm.Partite.num_vertices space');
  (* local (1, 0) = global (3, 1): not edge-free *)
  let rng = Random.State.make [| 0 |] in
  Alcotest.(check bool) "translated" false (oracle' ~rng [| [| 1 |]; [| 0 |] |]);
  Alcotest.(check bool) "translated free" true (oracle' ~rng [| [| 0 |]; [| 0 |] |])

let tests =
  [
    Alcotest.test_case "plan classification" `Quick test_plan_classification;
    Alcotest.test_case "plan wide DCQ" `Quick test_plan_wide_dcq_generic;
    Alcotest.test_case "planner count dispatch" `Quick test_planner_count_dispatch;
    Alcotest.test_case "ucq make/parse" `Quick test_ucq_make_and_parse;
    Alcotest.test_case "ucq counts" `Quick test_ucq_counts;
    Alcotest.test_case "core of even cycle" `Quick test_core_even_cycle;
    Alcotest.test_case "core of clique" `Quick test_core_clique;
    Alcotest.test_case "core with pendant" `Quick test_core_odd_cycle_with_pendant;
    Alcotest.test_case "dlm edge sampler" `Quick test_sample_edge;
    Alcotest.test_case "query-level dlm sampler" `Quick test_sample_dlm_query_level;
    Alcotest.test_case "restrict" `Quick test_restrict;
    QCheck_alcotest.to_alcotest prop_core_hom_equivalent;
  ]
