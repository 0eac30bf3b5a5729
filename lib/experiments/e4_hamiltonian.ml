(* E4 — Observation 10: treewidth-1 DCQs encode Hamiltonian-path counting,
   so no FPRAS exists (unless NP = RP); the FPTRAS price is exponential in
   the query.

   For growing n: the Held–Karp ground truth, the count recovered through
   the query encoding, and the cost of the oracle pipeline with the two
   engines — the colour-coding engine (faithful to Lemma 22: the probe
   that would settle boxes without colourings is off, 16 colour rounds)
   on small n, the Direct ablation engine on all n. The hom-call
   column grows explosively in n (the query size) while remaining
   polynomial in the database for fixed n: exactly the FPTRAS/no-FPRAS
   boundary the paper proves. *)

module G = Ac_workload.Graph
module Hardness = Approxcount.Hardness
module Colour_oracle = Approxcount.Colour_oracle

let run fmt =
  let rng = Common.rng "e4" in
  let rows = ref [] in
  List.iter
    (fun n ->
      let g = G.random_gnp ~rng n 0.6 in
      let dp, _ = Common.time (fun () -> Hardness.exact_paths g) in
      let exec = Ac_exec.Engine.sequential ~seed:n in
      let colour () =
        Approxcount.Fptras.approx_count ~exec ~engine:Colour_oracle.Tree_dp
          ~probe:false ~rounds:16 ~eps:0.3 ~delta:0.2 (Hardness.query n)
          (Hardness.database_of g)
      in
      let direct () =
        Hardness.approx_via_query ~exec ~engine:Colour_oracle.Direct ~eps:0.3
          ~delta:0.2 g
      in
      List.iter
        (fun (ename, count) ->
          let r, t = Common.time count in
          rows :=
            [
              string_of_int n;
              string_of_int (n * (n - 1) / 2);
              string_of_int dp;
              Common.f1 r.Approxcount.Fptras.estimate;
              ename;
              string_of_int r.oracle_calls;
              string_of_int r.hom_calls;
              Common.f3 t;
            ]
            :: !rows)
        ((if n <= 4 then [ ("colour", colour) ] else []) @ [ ("direct", direct) ]))
    [ 3; 4; 5; 6; 7 ];
  Common.table fmt
    ~title:
      "E4  Observation 10: Hamiltonian paths as a tw-1 DCQ (no FPRAS; cost is exp(‖φ‖))"
    ~header:
      [ "n"; "|Δ|"; "DP"; "estimate"; "engine"; "oracle"; "hom"; "t(s)" ]
    (List.rev !rows)

let experiment =
  {
    Common.id = "E4";
    claim = "Observation 10: tw-1 DCQs count Hamiltonian paths (no FPRAS unless NP=RP)";
    queries = [ ("hamiltonian-4", Ac_workload.Query_families.hamiltonian 4) ];
    run;
  }
