module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Fptras = Approxcount.Fptras
module Exact = Approxcount.Exact
module Colour_oracle = Approxcount.Colour_oracle

(* The three exact baselines agree on random ECQs. *)
let prop_exact_baselines_agree =
  QCheck2.Test.make ~count:150 ~name:"exact baselines agree"
    (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true)
    (fun (q, db) ->
      let a = Exact.brute_force q db in
      let b = Exact.by_join_projection q db in
      let c = Exact.by_free_enumeration q db in
      a = b && b = c)

(* Queries over a path of E/2 atoms (plus random E atoms, a negated F
   atom and disequalities) whose default join order binds some
   existential variables before the free ones: each "pinned"
   existential variable also sits in a one-fact unary S, smaller than E
   (at least 5 facts) and F's complement (at least 2), so the order
   takes it first. The unpinned ones mostly follow the free ones. Both
   sides of the projection cut are thus exercised — a table over an
   interleaved order, and a cut that skips trailing witnesses — as are
   [ℓ = 0] and [ℓ = num_vars]. *)
let gen_interleaved =
  let open QCheck2.Gen in
  int_range 2 4 >>= fun n ->
  int_range 0 n >>= fun l ->
  int_range 3 5 >>= fun u ->
  let value = int_range 0 (u - 1) and var = int_range 0 (n - 1) in
  list_size (int_range 0 (u * u)) (pair value value) >>= fun es ->
  list_size (int_range 0 ((u * u) - 2)) (pair value value) >>= fun fs ->
  int_range 0 2 >>= fun s ->
  array_size (return n) bool >>= fun pinned ->
  list_size (int_range 0 3) (pair var var) >>= fun edges ->
  opt (pair var var) >>= fun neg ->
  list_size (int_range 0 2) (pair var var) >>= fun diseqs ->
  let db = Structure.create ~universe_size:u in
  Structure.declare db "E" ~arity:2;
  Structure.declare db "F" ~arity:2;
  Structure.declare db "S" ~arity:1;
  List.iter
    (fun (a, b) -> Structure.add_fact db "E" [| a; b |])
    ([ (0, 1); (1, 0); (1, 1); (1, 2); (2, 1); (s, s) ] @ es);
  List.iter (fun (a, b) -> Structure.add_fact db "F" [| a; b |]) fs;
  Structure.add_fact db "S" [| s |];
  let atoms =
    List.init (n - 1) (fun v -> Ecq.Atom ("E", [| v; v + 1 |]))
    @ List.map (fun (a, b) -> Ecq.Atom ("E", [| a; b |])) edges
    @ List.filter_map
        (fun v -> if v >= l && pinned.(v) then Some (Ecq.Atom ("S", [| v |])) else None)
        (List.init n Fun.id)
    @ (match neg with Some (a, b) -> [ Ecq.Neg_atom ("F", [| a; b |]) ] | None -> [])
    @ List.filter_map
        (fun (a, b) -> if a <> b then Some (Ecq.Diseq (a, b)) else None)
        diseqs
  in
  return (Ecq.make ~num_free:l ~num_vars:n atoms, db)

(* Brute-force answer set: every assignment, projected and deduplicated. *)
let brute_answers q db =
  let n = Ecq.num_vars q and u = Structure.universe_size db in
  let assignment = Array.make n 0 in
  let out = ref [] in
  let rec go i =
    if i = n then begin
      if Ecq.satisfied_by q db assignment then
        out := Array.sub assignment 0 (Ecq.num_free q) :: !out
    end
    else
      for x = 0 to u - 1 do
        assignment.(i) <- x;
        go (i + 1)
      done
  in
  go 0;
  List.sort_uniq compare !out

let prop_cut_counts_agree =
  QCheck2.Test.make ~count:300 ~name:"exact counts agree on interleaved orders"
    gen_interleaved (fun (q, db) ->
      let a = Exact.brute_force q db in
      a = Exact.by_join_projection q db && a = Exact.by_free_enumeration q db)

let prop_answers_distinct =
  QCheck2.Test.make ~count:300 ~name:"answers: distinct, = brute-force set"
    gen_interleaved (fun (q, db) ->
      let got = Exact.answers q db in
      let sorted = List.sort compare got in
      List.length (List.sort_uniq compare got) = List.length got
      && sorted = brute_answers q db)

(* The cut only removes search nodes: on one instance with many
   witnesses per answer, the exact count ticks its budget less than
   enumerating every solution of the same join does. The order here
   puts the free variable first, so the count keeps no table. *)
let test_cut_ticks () =
  let q = Ecq.parse "ans(x) :- E(x, y), E(y, z), E(z, w)" in
  let db =
    Structure.of_facts ~universe_size:6
      (List.concat_map
         (fun a -> List.map (fun b -> ("E", [| a; b |])) [ 0; 1; 2; 3; 4; 5 ])
         [ 0; 1; 2; 3; 4; 5 ])
  in
  let full = Ac_runtime.Budget.create () in
  let solver =
    Ac_hom.Hom.prepare ~strategy:Ac_hom.Hom.Backtracking ~budget:full
      (Approxcount.Assoc.hom_instance q db)
  in
  let solutions = ref 0 in
  Ac_hom.Hom.iter_solutions solver ~reuse:true ~f:(fun _ ->
      incr solutions;
      true);
  let cut = Ac_runtime.Budget.create () in
  Alcotest.(check int) "count" 6 (Exact.by_join_projection ~budget:cut q db);
  Alcotest.(check int) "every solution enumerated" 1296 !solutions;
  let t_cut = Ac_runtime.Budget.ticks cut and t_full = Ac_runtime.Budget.ticks full in
  Alcotest.(check bool)
    (Printf.sprintf "cut ticks %d < full ticks %d" t_cut t_full)
    true (t_cut < t_full)

(* Oracle-driven exact counting equals the baselines, for every engine. *)
let prop_oracle_exact engine_name engine =
  QCheck2.Test.make ~count:60
    ~name:(Printf.sprintf "exact via oracle (%s)" engine_name)
    QCheck2.Gen.(pair (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true) (int_range 0 10000))
    (fun ((q, db), seed) ->
      let expected = Exact.by_join_projection q db in
      let r =
        Fptras.exact_count_via_oracle
          ~rng:(Random.State.make [| seed |])
          ~engine ~rounds:48 q db
      in
      int_of_float r.Fptras.estimate = expected)

(* Full approximate pipeline: on these small instances the estimator takes
   its exact path, so the result must equal the truth. *)
let prop_approx_small_exact =
  QCheck2.Test.make ~count:60 ~name:"approx_count exact on small instances"
    QCheck2.Gen.(pair (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true) (int_range 0 10000))
    (fun ((q, db), seed) ->
      let expected = Exact.by_join_projection q db in
      let r =
        Fptras.approx_count
          ~exec:(Ac_exec.Engine.sequential ~seed)
          ~rounds:48 ~eps:0.25 ~delta:0.2 q db
      in
      r.Fptras.exact && int_of_float r.Fptras.estimate = expected)

let test_boolean_queries () =
  let q = Ecq.parse "ans() :- E(x, y), x != y" in
  let db_yes = Structure.of_facts ~universe_size:3 [ ("E", [| 0; 1 |]) ] in
  let db_no = Structure.of_facts ~universe_size:3 [ ("E", [| 0; 0 |]) ] in
  let exec = Ac_exec.Engine.sequential ~seed:9 in
  let count db =
    (Fptras.approx_count ~exec ~rounds:48 ~eps:0.3 ~delta:0.2 q db).Fptras.estimate
  in
  Alcotest.(check (float 1e-9)) "boolean yes" 1.0 (count db_yes);
  Alcotest.(check (float 1e-9)) "boolean no" 0.0 (count db_no)

let test_friends_medium_accuracy () =
  (* estimator path (answers > cap): accuracy within 2ε with a fixed seed *)
  let rng = Random.State.make [| 17 |] in
  let q = Ac_workload.Query_families.friends () in
  let db = Ac_workload.Dbgen.friends_database ~rng ~n:250 ~avg_degree:6.0 in
  let exact = float_of_int (Exact.by_join_projection q db) in
  let r =
    Fptras.approx_count ~exec:(Ac_exec.Engine.sequential ~seed:17) ~eps:0.2
      ~delta:0.1 q db
  in
  let err = Float.abs (r.Fptras.estimate -. exact) /. Float.max exact 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "relative error %.3f (est %.1f vs %f)" err r.Fptras.estimate exact)
    true (err <= 0.4)

let test_star_distinct_estimator_path () =
  let rng = Random.State.make [| 23 |] in
  let q = Ac_workload.Query_families.star_distinct 2 in
  let db =
    Ac_workload.Dbgen.random_structure ~rng ~universe_size:80 [ ("E", 2, 300) ]
  in
  let exact = float_of_int (Exact.by_join_projection q db) in
  let r =
    Fptras.approx_count ~exec:(Ac_exec.Engine.sequential ~seed:23) ~eps:0.25
      ~delta:0.2 q db
  in
  let err = Float.abs (r.Fptras.estimate -. exact) /. Float.max exact 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "star2 err %.3f (est %.1f vs %f, level %d)" err
       r.Fptras.estimate exact r.Fptras.level)
    true (err <= 0.5)

let test_zero_answers () =
  let q = Ecq.parse "ans(x) :- E(x, y), !E(x, y)" in
  let db = Structure.of_facts ~universe_size:3 [ ("E", [| 0; 1 |]) ] in
  let r =
    Fptras.approx_count ~exec:(Ac_exec.Engine.sequential ~seed:3) ~eps:0.3
      ~delta:0.2 q db
  in
  Alcotest.(check (float 1e-9)) "contradictory query" 0.0 r.Fptras.estimate

let test_engines_agree_exact_mode () =
  let q = Ac_workload.Query_families.triangle_negation () in
  let rng = Random.State.make [| 31 |] in
  let db = Ac_workload.Dbgen.random_structure ~rng ~universe_size:12 [ ("E", 2, 30) ] in
  let expected = Exact.by_join_projection q db in
  List.iter
    (fun engine ->
      let r =
        Fptras.approx_count
          ~exec:(Ac_exec.Engine.sequential ~seed:37)
          ~engine ~rounds:48 ~eps:0.3 ~delta:0.2 q db
      in
      Alcotest.(check int) "engine agrees" expected (int_of_float r.Fptras.estimate))
    [ Colour_oracle.Tree_dp; Colour_oracle.Generic; Colour_oracle.Direct ]

let tests =
  [
    Alcotest.test_case "boolean queries" `Quick test_boolean_queries;
    Alcotest.test_case "zero answers" `Quick test_zero_answers;
    Alcotest.test_case "engines agree (exact mode)" `Quick test_engines_agree_exact_mode;
    Alcotest.test_case "friends medium accuracy" `Slow test_friends_medium_accuracy;
    Alcotest.test_case "star-distinct estimator path" `Slow test_star_distinct_estimator_path;
    QCheck_alcotest.to_alcotest prop_exact_baselines_agree;
    QCheck_alcotest.to_alcotest prop_cut_counts_agree;
    QCheck_alcotest.to_alcotest prop_answers_distinct;
    Alcotest.test_case "projection cut ticks less" `Quick test_cut_ticks;
    QCheck_alcotest.to_alcotest (prop_oracle_exact "tree_dp" Colour_oracle.Tree_dp);
    QCheck_alcotest.to_alcotest (prop_oracle_exact "generic" Colour_oracle.Generic);
    QCheck_alcotest.to_alcotest (prop_oracle_exact "direct" Colour_oracle.Direct);
    QCheck_alcotest.to_alcotest prop_approx_small_exact;
  ]
