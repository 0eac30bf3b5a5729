module G = Ac_workload.Graph
module Lihom = Approxcount.Lihom
module Hardness = Approxcount.Hardness
module Exact = Approxcount.Exact
module Fptras = Approxcount.Fptras

(* ---------- Corollary 6: locally injective homomorphisms ---------- *)

let test_lihom_concrete () =
  (* path P3 (2 edges) into the triangle: homs = walks of length 2 in K3:
     3·2·2 = 12; local injectivity forbids the two endpoints of the middle
     vertex's neighbourhood colliding: walks with v0 ≠ v2 → 3·2·1 = 6 *)
  let pattern = G.path 3 and host = G.clique 3 in
  Alcotest.(check int) "brute" 6 (Lihom.exact_count_brute ~pattern ~host);
  Alcotest.(check int) "query encoding" 6 (Lihom.exact_count ~pattern ~host)

let test_lihom_star () =
  (* star K1,2 into K4: centre 4 choices, two ordered distinct leaves out
     of the centre image's 3 neighbours: 4·3·2 = 24 *)
  let pattern = G.star 2 and host = G.clique 4 in
  Alcotest.(check int) "star into K4" 24 (Lihom.exact_count ~pattern ~host)

let prop_lihom_encoding_correct =
  QCheck2.Test.make ~count:60 ~name:"LIHom encoding = graph brute force"
    QCheck2.Gen.(
      triple (int_range 2 4) (int_range 2 5) (int_range 0 100000))
    (fun (pn, hn, seed) ->
      let rng = Random.State.make [| seed |] in
      let pattern =
        (* random connected-ish pattern: path plus maybe one extra edge *)
        let base = List.init (pn - 1) (fun i -> (i, i + 1)) in
        let extra =
          if pn > 2 && Random.State.bool rng then [ (0, pn - 1) ] else []
        in
        G.create ~num_vertices:pn (base @ extra)
      in
      let host = G.random_gnp ~rng hn 0.5 in
      Lihom.exact_count ~pattern ~host = Lihom.exact_count_brute ~pattern ~host)

let test_lihom_fptras () =
  let pattern = G.path 3 in
  let rng = Random.State.make [| 5 |] in
  let host = G.random_gnp ~rng 10 0.4 in
  let expected = Lihom.exact_count ~pattern ~host in
  let r =
    Lihom.approx_count ~exec:(Ac_exec.Engine.sequential ~seed:5) ~rounds:48
      ~eps:0.25 ~delta:0.2 ~pattern host
  in
  (* small instance: exact path of the estimator *)
  Alcotest.(check int) "fptras equals exact" expected (int_of_float r.Fptras.estimate)

(* ---------- Observation 10: Hamiltonian paths ---------- *)

let test_hamiltonian_concrete () =
  (* P3: 0-1-2 has exactly 2 Hamiltonian path sequences *)
  Alcotest.(check int) "path graph" 2 (Hardness.exact_paths (G.path 3));
  (* K3: 3! = 6 sequences *)
  Alcotest.(check int) "K3" 6 (Hardness.exact_paths (G.clique 3));
  (* K4: 4! = 24 *)
  Alcotest.(check int) "K4" 24 (Hardness.exact_paths (G.clique 4));
  (* star K1,3 has no Hamiltonian path *)
  Alcotest.(check int) "star" 0 (Hardness.exact_paths (G.star 3));
  (* C5: each rotation/direction/starting point... paths = 5·2 = 10 *)
  Alcotest.(check int) "C5" 10 (Hardness.exact_paths (G.cycle 5))

(* brute-force reference via permutations *)
let hamiltonian_brute g =
  let n = G.num_vertices g in
  let rec permutations = function
    | [] -> [ [] ]
    | l ->
        List.concat_map
          (fun x ->
            List.map (fun rest -> x :: rest)
              (permutations (List.filter (( <> ) x) l)))
          l
  in
  permutations (List.init n Fun.id)
  |> List.filter (fun perm ->
         let rec ok = function
           | a :: b :: rest -> G.has_edge g a b && ok (b :: rest)
           | _ -> true
         in
         ok perm)
  |> List.length

let prop_hamiltonian_dp =
  QCheck2.Test.make ~count:60 ~name:"Held-Karp DP = permutation brute force"
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = G.random_gnp ~rng n 0.5 in
      Hardness.exact_paths g = hamiltonian_brute g)

let prop_hamiltonian_query =
  QCheck2.Test.make ~count:30 ~name:"Observation 10 encoding counts Hamiltonian paths"
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 100000))
    (fun (n, seed) ->
      let rng = Random.State.make [| seed |] in
      let g = G.random_gnp ~rng n 0.6 in
      Hardness.exact_via_query g = Hardness.exact_paths g)

let test_hamiltonian_query_structure () =
  let q = Hardness.query 4 in
  Alcotest.(check int) "free vars" 4 (Ac_query.Ecq.num_free q);
  Alcotest.(check int) "all pairs diseq" 6 (List.length (Ac_query.Ecq.delta q));
  (* treewidth of H(φ) is 1: the hypergraph ignores disequalities *)
  let h = Ac_query.Ecq.hypergraph q in
  let tw, _ = Ac_hypergraph.Tree_decomposition.treewidth_exact h in
  Alcotest.(check int) "treewidth 1" 1 tw

let test_hamiltonian_fptras () =
  (* With the Direct engine (no colour-coding) the exact-path estimator is
     deterministic; with the colour engine the cost is exp(‖φ‖²), so keep
     the graph small (n = 4 → |Δ| = 6). *)
  let rng = Random.State.make [| 11 |] in
  let g = G.random_gnp ~rng 5 0.7 in
  let expected = Hardness.exact_paths g in
  let r =
    Hardness.approx_via_query ~exec:(Ac_exec.Engine.sequential ~seed:11)
      ~engine:Approxcount.Colour_oracle.Direct ~eps:0.3 ~delta:0.2 g
  in
  Alcotest.(check int) "direct engine equals DP" expected
    (int_of_float r.Fptras.estimate);
  let g4 = G.random_gnp ~rng:(Random.State.make [| 13 |]) 4 0.8 in
  let expected4 = Hardness.exact_paths g4 in
  (* the probe would settle every box by a join; off, the oracle colours *)
  let r4 =
    Fptras.approx_count
      ~exec:(Ac_exec.Engine.sequential ~seed:14)
      ~probe:false ~rounds:24 ~eps:0.3 ~delta:0.2 (Hardness.query 4)
      (Hardness.database_of g4)
  in
  Alcotest.(check int) "colour engine equals DP (n=4)" expected4
    (int_of_float r4.Fptras.estimate)

let tests =
  [
    Alcotest.test_case "lihom concrete" `Quick test_lihom_concrete;
    Alcotest.test_case "lihom star" `Quick test_lihom_star;
    Alcotest.test_case "lihom fptras" `Quick test_lihom_fptras;
    Alcotest.test_case "hamiltonian concrete" `Quick test_hamiltonian_concrete;
    Alcotest.test_case "hamiltonian query structure" `Quick test_hamiltonian_query_structure;
    Alcotest.test_case "hamiltonian fptras" `Slow test_hamiltonian_fptras;
    QCheck_alcotest.to_alcotest prop_lihom_encoding_correct;
    QCheck_alcotest.to_alcotest prop_hamiltonian_dp;
    QCheck_alcotest.to_alcotest prop_hamiltonian_query;
  ]
