open Ac_hypergraph

(* Random hypergraph generator shared by decomposition properties. *)
let gen_hypergraph =
  QCheck2.Gen.(
    int_range 2 8 >>= fun n ->
    list_size (int_range 1 10) (list_size (int_range 1 3) (int_range 0 (n - 1)))
    >>= fun edges ->
    let edges = List.filter (( <> ) []) edges in
    let edges = if edges = [] then [ [ 0 ] ] else edges in
    return (Hypergraph.create ~num_vertices:n edges))

let test_treewidth_values () =
  let tw h = fst (Tree_decomposition.treewidth_exact h) in
  Alcotest.(check int) "path" 1 (tw (Hypergraph.path 6));
  Alcotest.(check int) "cycle" 2 (tw (Hypergraph.cycle 6));
  Alcotest.(check int) "clique 5" 4 (tw (Hypergraph.clique 5));
  Alcotest.(check int) "star" 1 (tw (Hypergraph.star 5));
  Alcotest.(check int) "grid 2x3" 2 (tw (Hypergraph.grid 2 3));
  Alcotest.(check int) "grid 3x3" 3 (tw (Hypergraph.grid 3 3));
  Alcotest.(check int) "single vertex" 0 (tw (Hypergraph.path 1))

let test_exact_is_valid () =
  List.iter
    (fun h ->
      let w, d = Tree_decomposition.treewidth_exact h in
      Alcotest.(check bool) "valid" true (Tree_decomposition.is_valid h d);
      Alcotest.(check int) "width matches" w (Tree_decomposition.width d))
    [
      Hypergraph.path 7;
      Hypergraph.cycle 5;
      Hypergraph.clique 4;
      Hypergraph.grid 3 3;
      Hypergraph.hypercycle 3;
    ]

let test_min_fill_valid () =
  List.iter
    (fun h ->
      let d = Tree_decomposition.of_elimination_order h (Tree_decomposition.min_fill_order h) in
      Alcotest.(check bool) "valid" true (Tree_decomposition.is_valid h d))
    [ Hypergraph.path 10; Hypergraph.grid 4 4; Hypergraph.clique 6 ]

let test_min_fill_path_optimal () =
  let h = Hypergraph.path 10 in
  let d = Tree_decomposition.of_elimination_order h (Tree_decomposition.min_fill_order h) in
  Alcotest.(check int) "min-fill path width" 1 (Tree_decomposition.width d)

let prop_random_valid =
  QCheck2.Test.make ~count:100 ~name:"exact decomposition valid on random hypergraphs"
    gen_hypergraph
    (fun h ->
      let _, d = Tree_decomposition.treewidth_exact h in
      Tree_decomposition.is_valid h d)

let prop_min_fill_upper_bound =
  QCheck2.Test.make ~count:100 ~name:"min-fill width >= exact width" gen_hypergraph
    (fun h ->
      let exact, _ = Tree_decomposition.treewidth_exact h in
      let d =
        Tree_decomposition.of_elimination_order h (Tree_decomposition.min_fill_order h)
      in
      Tree_decomposition.is_valid h d && Tree_decomposition.width d >= exact)

let prop_min_degree_valid =
  QCheck2.Test.make ~count:100 ~name:"min-degree decomposition valid" gen_hypergraph
    (fun h ->
      let exact, _ = Tree_decomposition.treewidth_exact h in
      let d =
        Tree_decomposition.of_elimination_order h
          (Tree_decomposition.min_degree_order h)
      in
      Tree_decomposition.is_valid h d && Tree_decomposition.width d >= exact)

let test_heuristic_decompose_large () =
  (* above the exact limit: best-of heuristics, still valid *)
  let h = Hypergraph.grid 5 5 in
  let d = Tree_decomposition.decompose h in
  Alcotest.(check bool) "valid" true (Tree_decomposition.is_valid h d);
  Alcotest.(check bool) "width >= 5 (tw of 5x5 grid)" true
    (Tree_decomposition.width d >= 5)

let test_nice_structure () =
  List.iter
    (fun h ->
      let nice = Nice_decomposition.of_hypergraph h in
      Alcotest.(check bool) "is nice" true (Nice_decomposition.is_nice nice);
      Alcotest.(check bool) "is valid" true (Nice_decomposition.is_valid h nice))
    [
      Hypergraph.path 6;
      Hypergraph.cycle 5;
      Hypergraph.grid 3 3;
      Hypergraph.star 4;
      Hypergraph.hypercycle 3;
    ]

let prop_nice_random =
  QCheck2.Test.make ~count:100 ~name:"nice decomposition valid+nice on random"
    gen_hypergraph
    (fun h ->
      let nice = Nice_decomposition.of_hypergraph h in
      Nice_decomposition.is_nice nice && Nice_decomposition.is_valid h nice)

let prop_nice_width_preserved =
  QCheck2.Test.make ~count:100 ~name:"nice decomposition width does not grow"
    gen_hypergraph
    (fun h ->
      let w, d = Tree_decomposition.treewidth_exact h in
      let nice = Nice_decomposition.of_decomposition h d in
      ignore w;
      Nice_decomposition.width nice <= Tree_decomposition.width d)

let test_postorder () =
  let h = Hypergraph.grid 2 3 in
  let nice = Nice_decomposition.of_hypergraph h in
  let order = Nice_decomposition.postorder nice in
  Alcotest.(check int) "covers all nodes"
    (Nice_decomposition.num_nodes nice)
    (Array.length order);
  (* children appear before parents *)
  let seen = Array.make (Nice_decomposition.num_nodes nice) false in
  Array.iter
    (fun node ->
      List.iter
        (fun c -> Alcotest.(check bool) "child first" true seen.(c))
        (Nice_decomposition.children nice).(node);
      seen.(node) <- true)
    order

let tests =
  [
    Alcotest.test_case "treewidth values" `Quick test_treewidth_values;
    Alcotest.test_case "exact decomposition validity" `Quick test_exact_is_valid;
    Alcotest.test_case "min-fill validity" `Quick test_min_fill_valid;
    Alcotest.test_case "min-fill path optimal" `Quick test_min_fill_path_optimal;
    Alcotest.test_case "nice structure" `Quick test_nice_structure;
    Alcotest.test_case "postorder" `Quick test_postorder;
    Alcotest.test_case "heuristic decompose large" `Quick test_heuristic_decompose_large;
    QCheck_alcotest.to_alcotest prop_random_valid;
    QCheck_alcotest.to_alcotest prop_min_fill_upper_bound;
    QCheck_alcotest.to_alcotest prop_min_degree_valid;
    QCheck_alcotest.to_alcotest prop_nice_random;
    QCheck_alcotest.to_alcotest prop_nice_width_preserved;
  ]

(* Contraction keeps a valid decomposition of the same width and leaves
   no bag nested in its parent's. *)
let prop_contract =
  QCheck2.Test.make ~count:100 ~name:"contract: valid, same width, no nested bag"
    gen_hypergraph
    (fun h ->
      let d = Tree_decomposition.of_elimination_order h (Tree_decomposition.min_fill_order h) in
      let c = Tree_decomposition.contract d in
      Tree_decomposition.is_valid h c
      && Tree_decomposition.width c = Tree_decomposition.width d
      && Array.for_all Fun.id
           (Array.mapi
              (fun i p ->
                p < 0
                || not
                     (Bitset.subset c.bags.(i) c.bags.(p)
                     || Bitset.subset c.bags.(p) c.bags.(i)))
              c.parent))

let tests = tests @ [ QCheck_alcotest.to_alcotest prop_contract ]
