open Ac_dlm

(* Explicit ℓ-partite hypergraph: an edge is one local id per class. *)
let oracle_of_edges edges parts =
  not
    (List.exists
       (fun edge ->
         Array.for_all Fun.id
           (Array.mapi (fun i v -> Array.exists (( = ) v) parts.(i)) edge))
       edges)

(* The estimator's oracle form; these hypergraphs ignore the stream. *)
let deterministic oracle ~rng:_ = oracle

let sort_edges = List.sort compare

let test_space_basics () =
  let s = Partite.space [| 3; 4 |] in
  Alcotest.(check int) "classes" 2 (Partite.num_classes s);
  Alcotest.(check int) "vertices" 7 (Partite.num_vertices s);
  let all = Partite.all s in
  Alcotest.(check (float 1e-9)) "tuple count" 12.0 (Partite.tuple_count all);
  Alcotest.(check bool) "not empty" false (Partite.is_empty_part all)

let test_align_permutations () =
  let s = Partite.space [| 2; 2 |] in
  (* general parts: W1 = {(0,0),(1,1)}, W2 = {(0,1),(1,0)} *)
  let general = [| [ (0, 0); (1, 1) ]; [ (0, 1); (1, 0) ] |] in
  let aligned = Partite.align s general in
  Alcotest.(check int) "two permutations" 2 (List.length aligned);
  (* identity permutation: V1 = W1 ∩ U_0 = {0}, V2 = W2 ∩ U_1 = {0} *)
  Alcotest.(check bool) "identity present" true
    (List.exists (fun a -> a = [| [| 0 |]; [| 0 |] |]) aligned);
  (* swap: V1 = W1 ∩ U_1 = {1}, V2 = W2 ∩ U_0 = {1} *)
  Alcotest.(check bool) "swap present" true
    (List.exists (fun a -> a = [| [| 1 |]; [| 1 |] |]) aligned)

let test_general_of_aligned () =
  let s = Partite.space [| 2; 2 |] in
  let edges = [ [| 0; 1 |] ] in
  let oracle = oracle_of_edges edges in
  (* the edge (0 in class 0, 1 in class 1) presented in swapped general
     parts: W1 holds (1, 1), W2 holds (0, 0) *)
  let general = [| [ (1, 1) ]; [ (0, 0) ] |] in
  Alcotest.(check bool) "found via permutation" false
    (Partite.general_of_aligned s oracle general);
  let general_miss = [| [ (0, 1) ]; [ (1, 0) ] |] in
  Alcotest.(check bool) "no edge" true
    (Partite.general_of_aligned s oracle general_miss)

let test_with_counter () =
  let s = Partite.space [| 2 |] in
  let oracle, calls = Partite.with_counter (fun _ -> true) in
  ignore (oracle (Partite.all s));
  ignore (oracle (Partite.all s));
  Alcotest.(check int) "counted" 2 (calls ())

let test_exact_enumeration () =
  let s = Partite.space [| 3; 3 |] in
  let edges = [ [| 0; 0 |]; [| 1; 2 |]; [| 2; 1 |] ] in
  let got, complete = Edge_count.enumerate s (oracle_of_edges edges) () in
  Alcotest.(check bool) "complete" true complete;
  Alcotest.(check (list (array int))) "edges"
    (sort_edges edges)
    (sort_edges got)

let test_exact_count_empty () =
  let s = Partite.space [| 4; 4; 4 |] in
  Alcotest.(check int) "empty" 0 (Edge_count.exact_count s (oracle_of_edges []) ())

let test_enumeration_limit () =
  let s = Partite.space [| 4; 4 |] in
  let edges = List.init 8 (fun i -> [| i mod 4; i / 4 * 2 |]) in
  let edges = List.sort_uniq compare edges in
  let got, complete = Edge_count.enumerate s (oracle_of_edges edges) ~limit:2 () in
  Alcotest.(check bool) "incomplete" false complete;
  Alcotest.(check int) "limited" 2 (List.length got)

let test_within () =
  let s = Partite.space [| 3; 3 |] in
  let edges = [ [| 0; 0 |]; [| 1; 1 |]; [| 2; 2 |] ] in
  let within = [| [| 0; 1 |]; [| 0; 1 |] |] in
  let got, _ = Edge_count.enumerate s (oracle_of_edges edges) ~within () in
  Alcotest.(check int) "two inside the box" 2 (List.length got)

let prop_exact_matches_model =
  QCheck2.Test.make ~count:150 ~name:"oracle enumeration recovers the edge set"
    QCheck2.Gen.(
      pair (int_range 1 3)
        (list_size (int_range 0 10) (list_size (int_range 1 3) (int_range 0 3))))
    (fun (l, raw) ->
      let sizes = Array.make l 4 in
      let s = Partite.space sizes in
      let edges =
        raw
        |> List.filter_map (fun t ->
               if List.length t = l then Some (Array.of_list t) else None)
        |> List.sort_uniq compare
      in
      let got, complete = Edge_count.enumerate s (oracle_of_edges edges) () in
      complete && sort_edges got = sort_edges edges)

let test_estimate_exact_small () =
  let s = Partite.space [| 5; 5 |] in
  let edges = [ [| 0; 0 |]; [| 1; 2 |] ] in
  let rng = Random.State.make [| 1 |] in
  let r =
    Edge_count.estimate ~source:(Stream rng) ~epsilon:0.3 ~delta:0.1 s
      (deterministic (oracle_of_edges edges))
  in
  Alcotest.(check bool) "exact on small" true r.Edge_count.exact;
  Alcotest.(check (float 1e-9)) "value" 2.0 r.Edge_count.value

let test_estimate_overlapping_edges () =
  (* overlapping answer-style edges: all edges share class-0 vertex 0, the
     adversarial case for subsampling variance — the adaptive refinement
     must still land within tolerance *)
  let s = Partite.space [| 30; 500 |] in
  let edges = List.init 400 (fun j -> [| 0; j |]) in
  let rng = Random.State.make [| 13 |] in
  let r =
    Edge_count.estimate ~source:(Stream rng) ~epsilon:0.25 ~delta:0.1 s
      (deterministic (oracle_of_edges edges))
  in
  let err = Float.abs (r.Edge_count.value -. 400.0) /. 400.0 in
  Alcotest.(check bool)
    (Printf.sprintf "within 40%% (got %.1f at level %d)" r.Edge_count.value r.level)
    true (err < 0.4)

let test_estimate_three_classes () =
  let s = Partite.space [| 12; 12; 12 |] in
  let edges = ref [] in
  for i = 0 to 11 do
    for j = 0 to 11 do
      edges := [| i; j; (i + j) mod 12 |] :: !edges
    done
  done;
  let rng = Random.State.make [| 21 |] in
  let r =
    Edge_count.estimate ~source:(Stream rng) ~epsilon:0.25 ~delta:0.1 s
      (deterministic (oracle_of_edges !edges))
  in
  let err = Float.abs (r.Edge_count.value -. 144.0) /. 144.0 in
  Alcotest.(check bool)
    (Printf.sprintf "3-partite within 40%% (got %.1f)" r.Edge_count.value)
    true (err < 0.4)

let test_estimate_accuracy () =
  (* dense product set: 30 × 30 grid of edges = 900, estimator must land
     within 30% with seed fixed *)
  let s = Partite.space [| 40; 40 |] in
  let edges = ref [] in
  for i = 0 to 29 do
    for j = 0 to 29 do
      edges := [| i; j |] :: !edges
    done
  done;
  let rng = Random.State.make [| 7 |] in
  let r =
    Edge_count.estimate ~source:(Stream rng) ~epsilon:0.2 ~delta:0.1 s
      (deterministic (oracle_of_edges !edges))
  in
  let err = Float.abs (r.Edge_count.value -. 900.0) /. 900.0 in
  Alcotest.(check bool)
    (Printf.sprintf "within 30%% (got %.1f)" r.Edge_count.value)
    true (err < 0.3)

let tests =
  [
    Alcotest.test_case "space basics" `Quick test_space_basics;
    Alcotest.test_case "align permutations" `Quick test_align_permutations;
    Alcotest.test_case "general of aligned" `Quick test_general_of_aligned;
    Alcotest.test_case "with counter" `Quick test_with_counter;
    Alcotest.test_case "exact enumeration" `Quick test_exact_enumeration;
    Alcotest.test_case "exact count empty" `Quick test_exact_count_empty;
    Alcotest.test_case "enumeration limit" `Quick test_enumeration_limit;
    Alcotest.test_case "within box" `Quick test_within;
    Alcotest.test_case "estimate exact small" `Quick test_estimate_exact_small;
    Alcotest.test_case "estimate accuracy" `Quick test_estimate_accuracy;
    Alcotest.test_case "estimate overlapping edges" `Quick test_estimate_overlapping_edges;
    Alcotest.test_case "estimate three classes" `Quick test_estimate_three_classes;
    QCheck_alcotest.to_alcotest prop_exact_matches_model;
  ]
