(* E8 — §6 extensions: approximate-uniform sampling and unions of queries.

   (a) JVV sampling through the counting oracle: draw many answers of the
       friends query over a fixed database, compare the empirical
       frequencies to uniform via a χ² statistic, and compare against the
       exactly-uniform baseline sampler.
   (b) The FPRAS-side sampler (ACJR's, through the tree automaton).
   (c) Karp–Luby union counting for a union of two CQs, against exact. *)

module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Sampling = Approxcount.Sampling
module Exact = Approxcount.Exact
module Fpras = Approxcount.Fpras

let chi_square counts expected =
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. expected in
      acc +. (d *. d /. expected))
    0.0 counts

let run fmt =
  let rng = Common.rng "e8" in
  (* a small friends database with a known answer set *)
  let db =
    Structure.of_facts ~universe_size:8
      [
        ("F", [| 0; 1 |]); ("F", [| 0; 2 |]);
        ("F", [| 3; 1 |]); ("F", [| 3; 2 |]);
        ("F", [| 4; 5 |]); ("F", [| 4; 6 |]);
        ("F", [| 7; 5 |]); ("F", [| 7; 6 |]);
      ]
  in
  let q = Ac_workload.Query_families.friends () in
  let answers = List.sort compare (List.map (fun t -> t.(0)) (Exact.answers q db)) in
  let k = List.length answers in
  let index v =
    let rec go i = function
      | [] -> -1
      | x :: rest -> if x = v then i else go (i + 1) rest
    in
    go 0 answers
  in
  let draws = 120 in
  let jvv = Array.make k 0 and uniform = Array.make k 0 in
  let jvv_miss = ref 0 in
  for _ = 1 to draws do
    (match Sampling.sample ~rng ~rounds:32 ~eps:0.4 ~delta:0.2 q db with
    | Some [| v |] when index v >= 0 -> jvv.(index v) <- jvv.(index v) + 1
    | _ -> incr jvv_miss);
    match Sampling.sample_exact ~rng q db with
    | Some [| v |] when index v >= 0 -> uniform.(index v) <- uniform.(index v) + 1
    | _ -> ()
  done;
  let expected = float_of_int (draws - !jvv_miss) /. float_of_int k in
  let expected_u = float_of_int draws /. float_of_int k in
  Common.table fmt
    ~title:"E8a  §6 JVV sampling: empirical frequencies over the answer set"
    ~header:[ "sampler"; "draws"; "answers"; "chi^2"; "misses" ]
    [
      [
        "jvv (oracle)";
        string_of_int (draws - !jvv_miss);
        string_of_int k;
        Common.f3 (chi_square jvv expected);
        string_of_int !jvv_miss;
      ];
      [
        "uniform baseline";
        string_of_int draws;
        string_of_int k;
        Common.f3 (chi_square uniform expected_u);
        "0";
      ];
    ];
  (* (b) the FPRAS sampler on a CQ *)
  let cq = Ac_workload.Query_families.acyclic_join () in
  let db2 =
    Ac_workload.Dbgen.random_structure ~rng ~universe_size:12
      [ ("R", 2, 30); ("S", 2, 30); ("T", 2, 30) ]
  in
  let valid = ref 0 and total = ref 0 in
  let config = Ac_automata.Acjr.default_config ~seed:21 () in
  for _ = 1 to 40 do
    match Fpras.sample_answer ~config cq db2 with
    | Some tau ->
        incr total;
        if Exact.is_answer cq db2 tau then incr valid
    | None -> ()
  done;
  Common.table fmt
    ~title:"E8b  §6 FPRAS-side sampler (ACJR, through the tree automaton)"
    ~header:[ "samples"; "valid answers" ]
    [ [ string_of_int !total; string_of_int !valid ] ];
  (* (c) Karp–Luby unions *)
  let q1 = Ecq.parse "ans(x) :- F(x, y), F(x, z), y != z" in
  let q2 = Ecq.parse "ans(x) :- F(y, x)" in
  let exact_union = Sampling.union_count_exact [ q1; q2 ] db in
  let kl, t_kl =
    Common.time (fun () ->
        Sampling.union_count_karp_luby ~rng ~rounds:4000 [ q1; q2 ] db)
  in
  let kl_full, t_full =
    Common.time (fun () ->
        Sampling.union_count_approx ~exec:(Common.engine rng) ~kl_rounds:150
          ~eps:0.25 ~delta:0.1 [ q1; q2 ] db)
  in
  Common.table fmt
    ~title:"E8c  §6 Karp–Luby union counting (UCQ)"
    ~header:[ "estimator"; "exact"; "estimate"; "rel.err"; "t(s)" ]
    [
      [
        "exact pools (baseline)";
        string_of_int exact_union;
        Common.f1 kl;
        Common.f3 (Common.rel_err ~estimate:kl ~truth:(float_of_int exact_union));
        Common.f3 t_kl;
      ];
      [
        "full pipeline (FPTRAS+JVV)";
        string_of_int exact_union;
        Common.f1 kl_full;
        Common.f3
          (Common.rel_err ~estimate:kl_full ~truth:(float_of_int exact_union));
        Common.f3 t_full;
      ];
    ];
  (* (d) the DLM-style edge sampler at the query level *)
  let dlm_valid = ref 0 and dlm_total = 30 in
  for _ = 1 to dlm_total do
    match Sampling.sample_dlm ~rng ~rounds:32 ~eps:0.3 ~delta:0.2 q db with
    | Some tau when Exact.is_answer q db tau -> incr dlm_valid
    | _ -> ()
  done;
  Common.table fmt
    ~title:"E8d  §6 DLM edge sampler over the answer hypergraph"
    ~header:[ "draws"; "valid answers" ]
    [ [ string_of_int dlm_total; string_of_int !dlm_valid ] ]

let experiment =
  {
    Common.id = "E8";
    claim = "§6 extensions: JVV sampling, ACJR sampling, Karp-Luby unions";
    queries =
      [
        ("friends", Ac_workload.Query_families.friends ());
        ("acyclic-join", Ac_workload.Query_families.acyclic_join ());
      ];
    run;
  }
