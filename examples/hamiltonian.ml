(* Observation 10: why bounded-treewidth DCQs admit no FPRAS.

   The query φ(x₁..x_n) = ⋀ E(x_i, x_{i+1}) ∧ ⋀_{i<j} x_i ≠ x_j has
   treewidth 1 (the hypergraph ignores disequalities!) yet its answers are
   exactly the Hamiltonian paths of the database graph. Counting them is
   #P-hard, so any approximation scheme must pay a super-polynomial price
   somewhere — the FPTRAS of Theorem 5 pays it in ‖φ‖ (the 4^{|Δ|} colour
   budget), never in ‖D‖.

   This example shows: the encoding, the count agreement against a
   Held–Karp DP, and how the FPTRAS cost explodes with n while staying
   modest in the database size.

   Run with: dune exec examples/hamiltonian.exe *)

module G = Ac_workload.Graph
module Hardness = Approxcount.Hardness

let () =
  let rng = Random.State.make [| 99 |] in
  Format.printf "query for n = 4:@.  %a@." Ac_query.Ecq.pp (Hardness.query 4);
  let tw =
    fst
      (Ac_hypergraph.Tree_decomposition.treewidth_exact
         (Ac_query.Ecq.hypergraph (Hardness.query 4)))
  in
  Format.printf "treewidth of H(φ): %d  (disequalities add no hyperedges)@.@." tw;

  Format.printf "%-4s %-8s %-10s %-12s %-10s@." "n" "|Δ(φ)|" "DP count" "query count"
    "hom calls";
  List.iter
    (fun n ->
      let g = G.random_gnp ~rng n 0.6 in
      let dp = Hardness.exact_paths g in
      let via_query = Hardness.exact_via_query g in
      let r =
        Hardness.approx_via_query
          ~exec:(Ac_exec.Engine.sequential ~seed:n)
          ~engine:Approxcount.Colour_oracle.Direct ~eps:0.3 ~delta:0.2 g
      in
      Format.printf "%-4d %-8d %-10d %-12d %-10d@." n
        (n * (n - 1) / 2)
        dp via_query r.Approxcount.Fptras.hom_calls;
      assert (dp = via_query);
      assert (int_of_float r.Approxcount.Fptras.estimate = dp))
    [ 3; 4; 5; 6 ];

  Format.printf
    "@.The hom-call column grows explosively with n (the query), while for@.";
  Format.printf
    "fixed n it grows only polynomially with the graph — exactly the FPT@.";
  Format.printf "shape the paper proves, and why no FPRAS can exist (NP = RP).@."
