(* Focused edge-case and regression scenarios across the whole pipeline. *)

module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Relation = Ac_relational.Relation
module Fptras = Approxcount.Fptras
module Fpras = Approxcount.Fpras
module Exact = Approxcount.Exact
module Colour_oracle = Approxcount.Colour_oracle

let self_loop_db () =
  Structure.of_facts ~universe_size:4
    [ ("E", [| 0; 0 |]); ("E", [| 1; 2 |]); ("E", [| 3; 3 |]) ]

let test_repeated_variable_atom () =
  (* ans(x) :- E(x, x): counts self-loops; exercises the repeated-variable
     filtering of tries, arc consistency and bag solutions *)
  let q = Ecq.parse "ans(x) :- E(x, x)" in
  let db = self_loop_db () in
  Alcotest.(check int) "exact self loops" 2 (Exact.by_join_projection q db);
  Alcotest.(check int) "brute agrees" 2 (Exact.brute_force q db);
  let r =
    Fptras.approx_count ~exec:(Ac_exec.Engine.sequential ~seed:1) ~eps:0.3
      ~delta:0.2 q db
  in
  Alcotest.(check (float 1e-9)) "fptras" 2.0 r.Fptras.estimate;
  Alcotest.(check int) "fpras automaton" 2 (Fpras.exact_count_automaton q db)

let test_repeated_variable_negated () =
  (* ans(x) :- P(x), !E(x, x): elements without a self-loop *)
  let q = Ecq.parse "ans(x) :- P(x), !E(x, x)" in
  let db = self_loop_db () in
  for v = 0 to 3 do
    Structure.add_fact db "P" [| v |]
  done;
  Alcotest.(check int) "exact" 2 (Exact.by_join_projection q db);
  Alcotest.(check int) "free-enum agrees" 2 (Exact.by_free_enumeration q db)

let test_all_free_all_diseq () =
  (* quantifier-free with all-pairs disequalities = injective embeddings *)
  let q = Ecq.parse "ans(x, y) :- E(x, y), x != y" in
  let db = self_loop_db () in
  (* E facts without the self-loops: only (1,2) *)
  Alcotest.(check int) "injective edges" 1 (Exact.by_join_projection q db)

let test_constant_via_singleton () =
  (* the §1.1 constants trick: R_v = {v} pins a variable *)
  let db = Structure.with_singletons (self_loop_db ()) in
  let q =
    Ecq.make ~num_free:1 ~num_vars:2
      [
        Ecq.Atom ("E", [| 1; 0 |]);
        Ecq.Atom (Structure.singleton_symbol 1, [| 1 |]);
      ]
  in
  (* answers: x with E(1, x): only 2 *)
  Alcotest.(check int) "constant pin" 1 (Exact.by_join_projection q db);
  Alcotest.(check (list (array int))) "answer is 2" [ [| 2 |] ] (Exact.answers q db)

let test_universe_of_size_one () =
  let q = Ecq.parse "ans(x) :- E(x, x)" in
  let db = Structure.of_facts ~universe_size:1 [ ("E", [| 0; 0 |]) ] in
  Alcotest.(check int) "single element" 1 (Exact.by_join_projection q db);
  let q2 = Ecq.parse "ans(x, y) :- E(x, x), E(y, y), x != y" in
  Alcotest.(check int) "diseq impossible" 0 (Exact.by_join_projection q2 db)

let test_no_hom_box_is_cheap () =
  (* the colour-free shortcut: a box with no homomorphism at all must not
     pay colouring rounds *)
  let q = Ac_workload.Query_families.friends () in
  let db =
    Structure.of_facts ~universe_size:5
      [ ("F", [| 0; 1 |]); ("F", [| 0; 2 |]) ]
  in
  let oracle =
    Colour_oracle.create ~rounds:10000 ~engine:Colour_oracle.Tree_dp q db
  in
  (* person 4 has no friends: the box {4} admits no hom *)
  Alcotest.(check bool) "no answer" false
    (Colour_oracle.has_answer_in_box ~rng:(Random.State.make [| 1 |]) oracle
       [| [| 4 |] |]);
  Alcotest.(check bool) "cheap decision" true (Colour_oracle.hom_calls oracle <= 3)

let test_witness_shortcut () =
  (* box where the first witness already satisfies the disequality: one
     solve call suffices even with a tiny colour budget *)
  let q = Ac_workload.Query_families.friends () in
  let db =
    Structure.of_facts ~universe_size:5
      [ ("F", [| 0; 1 |]); ("F", [| 0; 2 |]) ]
  in
  let oracle = Colour_oracle.create ~rounds:1 ~engine:Colour_oracle.Tree_dp q db in
  Alcotest.(check bool) "found" true
    (Colour_oracle.has_answer_in_box ~rng:(Random.State.make [| 1 |]) oracle
       [| [| 0 |] |])

let test_two_diseqs_same_pair_vars () =
  (* duplicated disequalities collapse in Δ(φ) *)
  let q =
    Ecq.make ~num_free:2 ~num_vars:2
      [ Ecq.Atom ("E", [| 0; 1 |]); Ecq.Diseq (0, 1); Ecq.Diseq (1, 0) ]
  in
  Alcotest.(check (list (pair int int))) "delta deduped" [ (0, 1) ] (Ecq.delta q)

let test_boolean_cq_fpras () =
  (* ℓ = 0 CQ through the FPRAS pipeline: count is 0 or 1 *)
  let q = Ecq.parse "ans() :- E(x, y), E(y, z)" in
  let db = Structure.of_facts ~universe_size:3 [ ("E", [| 0; 1 |]); ("E", [| 1; 2 |]) ] in
  Alcotest.(check int) "boolean yes" 1 (Fpras.exact_count_automaton q db);
  let db0 = Structure.of_facts ~universe_size:3 [ ("E", [| 0; 1 |]) ] in
  (* E(x,y) ∧ E(y,z) with only edge 0→1: no y with in+out → no solution *)
  Alcotest.(check int) "boolean no" 0 (Fpras.exact_count_automaton q db0)

let test_medium_estimator_accuracy_sweep () =
  (* the estimator path across three magnitudes of |Ans| *)
  let rng = Random.State.make [| 5 |] in
  List.iter
    (fun n ->
      let q = Ac_workload.Query_families.star_distinct 2 in
      let db =
        Ac_workload.Dbgen.random_structure ~rng ~universe_size:n [ ("E", 2, 4 * n) ]
      in
      let exact = float_of_int (Exact.by_join_projection q db) in
      let r =
        Fptras.approx_count
          ~exec:(Ac_exec.Engine.sequential ~seed:n)
          ~eps:0.25 ~delta:0.1 q db
      in
      let err = Float.abs (r.Fptras.estimate -. exact) /. Float.max exact 1.0 in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d err=%.3f" n err)
        true (err <= 0.5))
    [ 40; 80; 160 ]

let tests =
  [
    Alcotest.test_case "repeated variable atom" `Quick test_repeated_variable_atom;
    Alcotest.test_case "repeated variable negated" `Quick test_repeated_variable_negated;
    Alcotest.test_case "all free all diseq" `Quick test_all_free_all_diseq;
    Alcotest.test_case "constants via singletons" `Quick test_constant_via_singleton;
    Alcotest.test_case "universe of size one" `Quick test_universe_of_size_one;
    Alcotest.test_case "no-hom box is cheap" `Quick test_no_hom_box_is_cheap;
    Alcotest.test_case "witness shortcut" `Quick test_witness_shortcut;
    Alcotest.test_case "duplicate diseqs" `Quick test_two_diseqs_same_pair_vars;
    Alcotest.test_case "boolean CQ fpras" `Quick test_boolean_cq_fpras;
    Alcotest.test_case "estimator accuracy sweep" `Slow test_medium_estimator_accuracy_sweep;
  ]

let test_by_hom_dp () =
  (* quantifier-free CQ: count via the Dalmau–Jonsson DP *)
  let q = Ecq.parse "ans(x, y) :- E(x, y), E(y, x)" in
  let db =
    Structure.of_facts ~universe_size:4
      [ ("E", [| 0; 1 |]); ("E", [| 1; 0 |]); ("E", [| 2; 3 |]) ]
  in
  (match Approxcount.Exact.by_hom_dp q db with
  | Some n ->
      Alcotest.(check int) "hom dp" (Approxcount.Exact.by_join_projection q db) n
  | None -> Alcotest.fail "quantifier-free CQ should qualify");
  (* existential variable disqualifies *)
  let q2 = Ecq.parse "ans(x) :- E(x, y)" in
  Alcotest.(check bool) "existential rejected" true
    (Approxcount.Exact.by_hom_dp q2 db = None);
  (* disequality disqualifies *)
  let q3 = Ecq.parse "ans(x, y) :- E(x, y), x != y" in
  Alcotest.(check bool) "diseq rejected" true
    (Approxcount.Exact.by_hom_dp q3 db = None);
  (* negation is fine: it is a positive atom over the complement *)
  let q4 = Ecq.parse "ans(x, y) :- E(x, y), !E(y, x)" in
  match Approxcount.Exact.by_hom_dp q4 db with
  | Some n ->
      Alcotest.(check int) "negation ok" (Approxcount.Exact.by_join_projection q4 db) n
  | None -> Alcotest.fail "negation should qualify"

let test_negation_arity_guard () =
  (* a high-arity negation over a large universe used to trip a
     complement-size guard; the lazy complement view answers it without
     materializing the 10^8-tuple complement (Observation 21's cost is
     paid only when something enumerates it), and membership is decided
     against the base alone *)
  let q =
    Ac_query.Ecq.make ~num_free:1 ~num_vars:4
      [
        Ac_query.Ecq.Atom ("R", [| 0; 1; 2; 3 |]);
        Ac_query.Ecq.Neg_atom ("R", [| 1; 2; 3; 0 |]);
      ]
  in
  let db = Structure.create ~universe_size:100 in
  Structure.add_fact db "R" [| 0; 1; 2; 3 |];
  Alcotest.(check int) "lazy complement answers exactly" 1
    (Approxcount.Exact.by_join_projection q db);
  let c = Relation.complement_view ~universe_size:100 (Structure.relation db "R") in
  Alcotest.(check int) "complement size 100^4 - 1" (100_000_000 - 1)
    (Relation.cardinality c);
  Alcotest.(check bool) "base tuple excluded" false (Relation.mem c [| 0; 1; 2; 3 |]);
  Alcotest.(check bool) "rotation included" true (Relation.mem c [| 1; 2; 3; 0 |])

let tests =
  tests
  @ [
      Alcotest.test_case "by_hom_dp" `Quick test_by_hom_dp;
      Alcotest.test_case "negation arity guard" `Quick test_negation_arity_guard;
    ]
