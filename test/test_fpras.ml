module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Fpras = Approxcount.Fpras
module Exact = Approxcount.Exact
module Bitset = Ac_hypergraph.Bitset

(* Definition 47 reference implementation: α over the bag extends, per
   atom, to a consistent assignment hitting a fact. *)
let bag_solutions_brute q db bag =
  let bag_vars = Array.of_list (Bitset.to_list bag) in
  let u = Structure.universe_size db in
  let k = Array.length bag_vars in
  let alpha = Array.make k 0 in
  let atom_ok (name, scope) =
    let rel = Structure.relation db name in
    Ac_relational.Relation.fold
      (fun tuple acc ->
        acc
        ||
        (* tuple consistent with alpha on shared variables, and
           self-consistent on repeated ones *)
        let ok = ref true in
        let first = Hashtbl.create 4 in
        Array.iteri
          (fun pos v ->
            (match Hashtbl.find_opt first v with
            | None -> Hashtbl.replace first v pos
            | Some p0 -> if tuple.(pos) <> tuple.(p0) then ok := false);
            Array.iteri
              (fun i bv -> if bv = v && tuple.(pos) <> alpha.(i) then ok := false)
              bag_vars)
          scope;
        !ok)
      rel false
  in
  let atoms =
    List.filter_map
      (function
        | Ecq.Atom (name, scope) -> Some (name, scope)
        | Ecq.Neg_atom _ | Ecq.Diseq _ -> None)
      (Ecq.atoms q)
  in
  let out = ref [] in
  let rec go i =
    if i = k then begin
      if List.for_all atom_ok atoms then out := Array.copy alpha :: !out
    end
    else
      for v = 0 to u - 1 do
        alpha.(i) <- v;
        go (i + 1)
      done
  in
  if k = 0 then (if List.for_all atom_ok atoms then out := [ [||] ]) else go 0;
  !out

let sort_sols = List.sort compare

let prop_bag_solutions =
  QCheck2.Test.make ~count:100 ~name:"Lemma 48 bag solutions = Definition 47"
    QCheck2.Gen.(
      pair (Gen.ecq_with_db ~allow_neg:false ~allow_diseq:false) (int_range 0 1000))
    (fun ((q, db), seed) ->
      let n = Ecq.num_vars q in
      let rng = Random.State.make [| seed |] in
      let bag =
        Bitset.of_list ~capacity:n
          (List.filter (fun _ -> Random.State.bool rng) (List.init n Fun.id))
      in
      match Fpras.bag_solutions q db bag with
      | None ->
          (* some relation empty: reference must agree there are no
             solutions over the full bag *)
          Exact.by_join_projection q db = 0
      | Some sols -> sort_sols sols = sort_sols (bag_solutions_brute q db bag))

(* THE Lemma 52 property: automaton-accepted labelings are in bijection
   with answers — exact automaton count = exact answer count. *)
let prop_lemma52_bijection =
  QCheck2.Test.make ~count:120 ~name:"Lemma 52: |L(A)| = |Ans|"
    (Gen.ecq_with_db ~allow_neg:false ~allow_diseq:false)
    (fun (q, db) ->
      Fpras.exact_count_automaton q db = Exact.by_join_projection q db)

let prop_acjr_close =
  QCheck2.Test.make ~count:40 ~name:"FPRAS estimate close to exact on small"
    QCheck2.Gen.(pair (Gen.ecq_with_db ~allow_neg:false ~allow_diseq:false) (int_range 0 1000))
    (fun ((q, db), seed) ->
      let exact = float_of_int (Exact.by_join_projection q db) in
      let config = Ac_automata.Acjr.default_config ~seed () in
      let est =
        Fpras.approx_count ~config
          ~exec:(Ac_exec.Engine.sequential ~seed)
          ~repetitions:1 ~eps:0.25 q db
      in
      if exact = 0.0 then est = 0.0
      else Float.abs (est -. exact) /. exact < 0.5)

let prop_sample_answers_valid =
  QCheck2.Test.make ~count:40 ~name:"FPRAS sampler returns genuine answers"
    QCheck2.Gen.(pair (Gen.ecq_with_db ~allow_neg:false ~allow_diseq:false) (int_range 0 1000))
    (fun ((q, db), seed) ->
      let config = Ac_automata.Acjr.default_config ~seed () in
      match Fpras.sample_answer ~config q db with
      | None -> Exact.by_join_projection q db = 0 || Ecq.num_free q = 0
      | Some tau -> Exact.is_answer q db tau)

let test_acyclic_join_concrete () =
  let q = Ac_workload.Query_families.acyclic_join () in
  let db =
    Structure.of_facts ~universe_size:4
      [
        ("R", [| 0; 1 |]);
        ("R", [| 2; 1 |]);
        ("S", [| 1; 3 |]);
        ("T", [| 1; 0 |]);
      ]
  in
  (* answers: (x, y) with R(x,z) ∧ S(z,y) ∧ T(z,w): z=1 works, x ∈ {0,2},
     y = 3 → 2 answers *)
  Alcotest.(check int) "exact" 2 (Exact.by_join_projection q db);
  Alcotest.(check int) "automaton" 2 (Fpras.exact_count_automaton q db)

let test_fractional_triangle_concrete () =
  let q = Ac_workload.Query_families.fractional_triangle () in
  let rng = Random.State.make [| 8 |] in
  let db =
    Ac_workload.Dbgen.random_structure ~rng ~universe_size:10
      [ ("E1", 2, 30); ("E2", 2, 30); ("E3", 2, 30) ]
  in
  let expected = Exact.by_join_projection q db in
  Alcotest.(check int) "fhw<hw family automaton count" expected
    (Fpras.exact_count_automaton q db)

let test_empty_relation_zero () =
  let q = Ac_workload.Query_families.acyclic_join () in
  let db =
    Structure.of_facts ~universe_size:3 [ ("R", [| 0; 1 |]); ("S", [| 1; 2 |]) ]
  in
  (* T missing entirely: incompatible *)
  (match Fpras.build q db with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected incompatibility");
  let db2 = Structure.copy db in
  Structure.declare db2 "T" ~arity:2;
  Alcotest.(check bool) "empty T relation → None" true (Fpras.build q db2 = None);
  Alcotest.(check (float 1e-9)) "approx 0" 0.0 (Fpras.approx_count
       ~exec:(Ac_exec.Engine.sequential ~seed:0)
       ~eps:0.25 q db2)

let test_build_stats () =
  let q = Ac_workload.Query_families.acyclic_join () in
  let rng = Random.State.make [| 4 |] in
  let db =
    Ac_workload.Dbgen.random_structure ~rng ~universe_size:8
      [ ("R", 2, 20); ("S", 2, 20); ("T", 2, 20) ]
  in
  match Fpras.build q db with
  | None -> Alcotest.fail "expected automaton"
  | Some b ->
      Alcotest.(check bool) "states positive" true (b.Fpras.num_states > 0);
      Alcotest.(check bool) "symbols <= states" true
        (b.Fpras.num_symbols <= b.Fpras.num_states);
      Alcotest.(check bool) "nodes positive" true (b.Fpras.num_nodes > 0)

let test_rejects_non_cq () =
  let q = Ac_workload.Query_families.friends () in
  let db = Structure.of_facts ~universe_size:2 [ ("F", [| 0; 1 |]) ] in
  match Fpras.build q db with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "DCQ must be rejected by the FPRAS"

(* A run's run-state memo dies with the run: live heap after a full
   major GC stays flat across seeded fpras runs. *)
let test_runs_leave_heap_flat () =
  let module Api = Approxcount.Api in
  let db =
    Ac_workload.Graph.(
      to_structure (random_gnp ~rng:(Random.State.make [| 7 |]) 24 0.25))
  in
  let q = Ecq.parse "ans(x) :- E(x,y), E(y,z)" in
  let run seed =
    match
      Api.run
        Api.Request.(
          make q db |> with_method Api.Fpras
          |> with_seed (Some seed)
          |> with_jobs (Some 1))
    with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "fpras failed: %s" (Ac_runtime.Error.message e)
  in
  let live_mb () =
    Gc.full_major ();
    float_of_int ((Gc.stat ()).Gc.live_words * (Sys.word_size / 8)) /. 1e6
  in
  run 1;
  let base = live_mb () in
  List.iter
    (fun seed ->
      run seed;
      let live = live_mb () in
      if live > base +. 1.0 then
        Alcotest.failf "run %d: live heap %.1f MB, %.1f MB after run 1" seed
          live base)
    [ 2; 3 ]

let tests =
  [
    Alcotest.test_case "acyclic join concrete" `Quick test_acyclic_join_concrete;
    Alcotest.test_case "fractional triangle concrete" `Quick test_fractional_triangle_concrete;
    Alcotest.test_case "empty relation zero" `Quick test_empty_relation_zero;
    Alcotest.test_case "build stats" `Quick test_build_stats;
    Alcotest.test_case "rejects non-CQ" `Quick test_rejects_non_cq;
    QCheck_alcotest.to_alcotest prop_bag_solutions;
    QCheck_alcotest.to_alcotest prop_lemma52_bijection;
    QCheck_alcotest.to_alcotest prop_acjr_close;
    QCheck_alcotest.to_alcotest prop_sample_answers_valid;
    Alcotest.test_case "runs leave the heap flat" `Quick test_runs_leave_heap_flat;
  ]
