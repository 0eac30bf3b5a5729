module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Colour_oracle = Approxcount.Colour_oracle
module Exact = Approxcount.Exact

(* Ground truth: does the box contain an answer? *)
let box_has_answer q db parts =
  Exact.answers q db
  |> List.exists (fun tau ->
         Array.for_all Fun.id
           (Array.mapi (fun i v -> Array.exists (( = ) v) parts.(i)) tau))

let engines =
  [
    ("tree_dp", Colour_oracle.Tree_dp);
    ("generic", Colour_oracle.Generic);
    ("direct", Colour_oracle.Direct);
  ]

(* Oracle correctness on random instances and random boxes. One-sided
   error: with enough colouring rounds both directions must hold with
   overwhelming probability (≥ 1/4 success per round for |Δ| ≤ 1 leaves
   (3/4)^rounds failure). *)
let prop_oracle_matches ~allow_neg ~allow_diseq engine_name engine =
  QCheck2.Test.make ~count:80
    ~name:
      (Printf.sprintf "oracle(%s) matches ground truth (neg=%b diseq=%b)"
         engine_name allow_neg allow_diseq)
    QCheck2.Gen.(pair (Gen.ecq_with_db ~allow_neg ~allow_diseq) (int_range 0 10000))
    (fun ((q, db), seed) ->
      let l = Ecq.num_free q in
      if l = 0 || Structure.universe_size db = 0 then true
      else begin
        let rng = Random.State.make [| seed |] in
        let oracle = Colour_oracle.create ~rounds:48 ~engine q db in
        let u = Structure.universe_size db in
        let ok = ref true in
        for trial = 0 to 4 do
          let box_rng = Random.State.make [| seed + trial |] in
          let parts =
            Array.init l (fun _ ->
                Array.of_list
                  (List.filter
                     (fun _ -> Random.State.bool box_rng)
                     (List.init u Fun.id)))
          in
          let expected = box_has_answer q db parts in
          let got = Colour_oracle.has_answer_in_box ~rng oracle parts in
          if got <> expected then ok := false
        done;
        !ok
      end)

let test_counts_tracked () =
  let q = Ac_workload.Query_families.friends () in
  let db =
    Structure.of_facts ~universe_size:3
      [ ("F", [| 0; 1 |]); ("F", [| 0; 2 |]) ]
  in
  let oracle =
    Colour_oracle.create ~rounds:64 ~engine:Colour_oracle.Tree_dp q db
  in
  Alcotest.(check int) "no calls yet" 0 (Colour_oracle.oracle_calls oracle);
  let parts = [| [| 0; 1; 2 |] |] in
  Alcotest.(check bool) "answer found" true
    (Colour_oracle.has_answer_in_box ~rng:(Random.State.make [| 1 |]) oracle
       parts);
  Alcotest.(check int) "one oracle call" 1 (Colour_oracle.oracle_calls oracle);
  Alcotest.(check bool) "hom calls made" true (Colour_oracle.hom_calls oracle > 0)

let test_empty_part () =
  let q = Ac_workload.Query_families.friends () in
  let db = Structure.of_facts ~universe_size:3 [ ("F", [| 0; 1 |]); ("F", [| 0; 2 |]) ] in
  let oracle = Colour_oracle.create ~rounds:8 ~engine:Colour_oracle.Tree_dp q db in
  Alcotest.(check bool) "empty part has no edge" false
    (Colour_oracle.has_answer_in_box ~rng:(Random.State.make [| 1 |]) oracle
       [| [||] |])

let test_propagation_pinned_diseq () =
  (* Hamiltonian-style query: all disequalities among free variables; at
     singleton boxes the propagation must resolve all of them without
     colour rounds (rounds=1 suffices for a correct positive answer). *)
  let q = Ac_workload.Query_families.hamiltonian 3 in
  let g = Ac_workload.Graph.path 3 in
  let db = Ac_workload.Graph.to_structure g in
  let oracle = Colour_oracle.create ~rounds:1 ~engine:Colour_oracle.Tree_dp q db in
  let rng = Random.State.make [| 2 |] in
  (* the path 0-1-2 is a Hamiltonian path *)
  Alcotest.(check bool) "path found" true
    (Colour_oracle.has_answer_in_box ~rng oracle [| [| 0 |]; [| 1 |]; [| 2 |] |]);
  Alcotest.(check bool) "non-path rejected" false
    (Colour_oracle.has_answer_in_box ~rng oracle [| [| 0 |]; [| 2 |]; [| 1 |] |]);
  Alcotest.(check bool) "repeated vertex rejected" false
    (Colour_oracle.has_answer_in_box ~rng oracle [| [| 0 |]; [| 1 |]; [| 0 |] |])

let test_space () =
  let q = Ac_workload.Query_families.star_distinct 2 in
  let db = Structure.of_facts ~universe_size:5 [ ("E", [| 0; 1 |]) ] in
  let oracle = Colour_oracle.create ~engine:Colour_oracle.Generic q db in
  let space = Colour_oracle.space oracle in
  Alcotest.(check int) "two classes" 2 (Ac_dlm.Partite.num_classes space);
  Alcotest.(check int) "class size" 10 (Ac_dlm.Partite.num_vertices space)

let test_rounds_for () =
  let r = Colour_oracle.rounds_for ~delta:0.1 ~ell:2 ~num_diseq:2 ~expected_oracle_calls:100 in
  Alcotest.(check bool) "scales with 4^delta" true (r >= 16);
  let r0 = Colour_oracle.rounds_for ~delta:0.1 ~ell:2 ~num_diseq:0 ~expected_oracle_calls:100 in
  Alcotest.(check bool) "smaller without diseqs" true (r0 < r)

let tests =
  [
    Alcotest.test_case "call counters" `Quick test_counts_tracked;
    Alcotest.test_case "empty part" `Quick test_empty_part;
    Alcotest.test_case "pinned diseq propagation" `Quick test_propagation_pinned_diseq;
    Alcotest.test_case "space" `Quick test_space;
    Alcotest.test_case "rounds_for" `Quick test_rounds_for;
  ]
  @ List.concat_map
      (fun (name, engine) ->
        [
          QCheck_alcotest.to_alcotest
            (prop_oracle_matches ~allow_neg:false ~allow_diseq:false name engine);
          QCheck_alcotest.to_alcotest
            (prop_oracle_matches ~allow_neg:true ~allow_diseq:true name engine);
        ])
      engines
