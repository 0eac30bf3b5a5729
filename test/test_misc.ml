(* Cross-cutting coverage: the unaligned (permutation) oracle path of
   Lemma 22 end-to-end, induced substructures, and small invariants. *)

module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Partite = Ac_dlm.Partite
module Colour_oracle = Approxcount.Colour_oracle
module Exact = Approxcount.Exact

(* Lemma 22's permutation step end-to-end: present the answer hypergraph
   oracle with GENERAL (class-mixed) parts and check that
   [general_of_aligned] agrees with ground truth under every class
   shuffle. *)
let test_unaligned_oracle_path () =
  let q = Ac_workload.Query_families.star_distinct 2 in
  let db =
    Structure.of_facts ~universe_size:4
      [ ("E", [| 0; 1 |]); ("E", [| 0; 2 |]); ("E", [| 3; 2 |]) ]
  in
  let oracle =
    Colour_oracle.create ~rounds:64 ~engine:Colour_oracle.Tree_dp q db
  in
  let space = Colour_oracle.space oracle in
  let aligned =
    Colour_oracle.seeded_oracle oracle ~rng:(Random.State.make [| 1 |])
  in
  let answers = Exact.answers q db in
  Alcotest.(check bool) "has answers" true (answers <> []);
  (* a genuine answer (a, b): presented with the classes swapped inside
     the general parts, the permutation reduction must still find it *)
  let a, b =
    match answers with t :: _ -> (t.(0), t.(1)) | [] -> assert false
  in
  let general_hit = [| [ (1, b) ]; [ (0, a) ] |] in
  Alcotest.(check bool) "swapped general parts found" false
    (Partite.general_of_aligned space aligned general_hit);
  (* a non-answer: (x, x) pairs are excluded by the disequality *)
  let general_miss = [| [ (0, a); (1, a) ]; [ (0, a); (1, a) ] |] in
  let expected_miss =
    not (List.exists (fun t -> t.(0) = a && t.(1) = a) answers)
  in
  Alcotest.(check bool) "diagonal box" expected_miss
    (Partite.general_of_aligned space aligned general_miss)

let test_structure_induced () =
  let s =
    Structure.of_facts ~universe_size:5
      [ ("E", [| 0; 1 |]); ("E", [| 1; 4 |]); ("P", [| 4 |]) ]
  in
  let sub = Structure.induced s [ 1; 4 ] in
  Alcotest.(check int) "universe" 2 (Structure.universe_size sub);
  (* 1 → 0, 4 → 1 *)
  Alcotest.(check bool) "kept edge" true (Structure.holds sub "E" [| 0; 1 |]);
  Alcotest.(check bool) "dropped edge" false (Structure.holds sub "E" [| 1; 0 |]);
  Alcotest.(check bool) "kept unary" true (Structure.holds sub "P" [| 1 |]);
  (* relations survive as declarations even when emptied *)
  Alcotest.(check bool) "symbols preserved" true
    (Structure.symbols sub = [ "E"; "P" ]);
  match Structure.induced s [ 0; 9 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range element should raise"

let prop_labelings_cardinality =
  QCheck2.Test.make ~count:40 ~name:"|labelings| = alphabet^size"
    QCheck2.Gen.(pair (int_range 1 4) (int_range 1 3))
    (fun (n, alphabet) ->
      List.for_all
        (fun shape ->
          let count = List.length (Ac_automata.Ltree.labelings ~alphabet shape) in
          let expected =
            int_of_float (float_of_int alphabet ** float_of_int n)
          in
          count = expected)
        (Ac_automata.Ltree.shapes_with_size n))

(* Planner dispatch matches exact counts on random small queries (the
   chosen scheme must be a correct counter whatever it is). *)
let prop_planner_correct =
  QCheck2.Test.make ~count:25 ~name:"planner result close to exact"
    QCheck2.Gen.(pair (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true) (int_range 0 10000))
    (fun ((q, db), seed) ->
      let exact = float_of_int (Exact.by_join_projection q db) in
      let v =
        match
          Ac_test_support.Governed.count
            ~exec:(Ac_exec.Engine.make ~jobs:1 ~seed ())
            ~strict:true ~eps:0.3 ~delta:0.2 q db
        with
        | Ok g -> g.Approxcount.Planner.estimate
        | Error e ->
            QCheck2.Test.fail_reportf "count failed: %s"
              (Ac_runtime.Error.message e)
      in
      if exact = 0.0 then v < 1.0
      else Float.abs (v -. exact) /. exact <= 0.6)

let test_hypercycle_widths () =
  (* the arity-3 hypercycle family: every bag coverable by few ternary
     edges; fhw strictly below treewidth + 1 *)
  let h = Ac_hypergraph.Hypergraph.hypercycle 3 in
  let tw = fst (Ac_hypergraph.Tree_decomposition.treewidth_exact h) in
  let fhw = fst (Ac_hypergraph.Widths.fhw_exact h) in
  Alcotest.(check bool) "fhw below tw+1" true (fhw < float_of_int (tw + 1));
  Alcotest.(check bool) "fhw at least 1" true (fhw >= 1.0)

let tests =
  [
    Alcotest.test_case "unaligned oracle path" `Quick test_unaligned_oracle_path;
    Alcotest.test_case "structure induced" `Quick test_structure_induced;
    Alcotest.test_case "hypercycle widths" `Quick test_hypercycle_widths;
    QCheck_alcotest.to_alcotest prop_labelings_cardinality;
    QCheck_alcotest.to_alcotest prop_planner_correct;
  ]
