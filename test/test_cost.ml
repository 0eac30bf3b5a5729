(* The static cost & cardinality analyzer: Rat overflow degradation,
   the fpras price read off the sketch size, qcheck soundness of the instantiated edge-cover bound against exact
   counts, estimate preservation under cost-driven chain reordering,
   ladder shape, and catalog distinct counts. *)

module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Rat = Ac_lp.Rat
module Error = Ac_runtime.Error
module Chaos = Ac_runtime.Chaos
module Cardinality = Ac_analysis.Cardinality
module Cost = Ac_analysis.Cost
module Ladder = Ac_analysis.Ladder
module Classify = Ac_analysis.Classify
module Report = Ac_analysis.Report
module Engine = Ac_exec.Engine
module Planner = Approxcount.Planner
module Exact = Approxcount.Exact
module Acjr = Ac_automata.Acjr

let analyze_with db q =
  Cost.analyze ~stats:(Cardinality.of_structure db) q (Classify.classify q)

(* ---------- Rat overflow is typed, and the bound degrades ---------- *)

let test_rat_overflow () =
  let huge = Rat.of_int max_int in
  (match Rat.mul huge huge with
  | _ -> Alcotest.fail "expected Rat.Overflow"
  | exception Rat.Overflow -> ());
  (* a near-max denominator sum also overflows, not wraps *)
  let tiny = Rat.make 1 (max_int - 1) in
  (match Rat.add tiny (Rat.make 1 (max_int - 2)) with
  | _ -> Alcotest.fail "expected Rat.Overflow on denominator product"
  | exception Rat.Overflow -> ())

(* [Cost] prices an fpras run at log₂ reps + log₂ κ(ε) probes: the
   executor runs reps sketches of κ(ε) = max κ_min ⌈c/ε²⌉ samples and
   union rounds per cell. The price is its log₂ exactly at every ε,
   including where the floor binds. *)
let test_fpras_sketch_price () =
  let db =
    Structure.of_facts ~universe_size:3 [ ("E", [| 0; 1 |]); ("E", [| 1; 2 |]) ]
  in
  let cost = analyze_with db (Ecq.parse "ans(x, y) :- E(x, z), E(z, y)") in
  let delta = 0.1 in
  let log2_reps = Float.log2 (float_of_int (Acjr.repetitions_for ~delta)) in
  List.iter
    (fun eps ->
      let kappa = Acjr.sketch_size_for ~eps in
      let fpras =
        List.find
          (fun a -> a.Cost.rung = Cost.Fpras)
          (Cost.rank ~eps ~delta cost)
      in
      (* stated as a sum so float rounding cannot blur "exactly" *)
      Alcotest.(check (float 0.0))
        (Printf.sprintf "log2 probes = log2 reps + log2 kappa at eps=%g" eps)
        (log2_reps +. Float.log2 (float_of_int kappa))
        fpras.Cost.log2_probes)
    [ 0.01; 0.02; 0.03; 0.05; 0.08; 0.0866; 0.1; 0.25; 0.5; 1.0 ];
  List.iter
    (fun eps ->
      Alcotest.(check int)
        (Printf.sprintf "floor at eps=%g" eps)
        Acjr.sketch_floor (Acjr.sketch_size_for ~eps))
    [ 0.1; 0.25; 0.5; 1.0 ]

(* ---------- bound soundness: 2^bound >= exact count ---------- *)

let prop_bound_sound =
  QCheck2.Test.make ~count:150
    ~name:"instantiated edge-cover bound dominates the exact count"
    (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true)
    (fun (q, db) ->
      let exact = float_of_int (Exact.by_join_projection q db) in
      let cost = analyze_with db q in
      let b = cost.Cost.query_bound in
      let bound =
        if b.Cost.log2 = Float.neg_infinity then 0.0
        else Float.pow 2.0 b.Cost.log2
      in
      if exact > (bound *. (1.0 +. 1e-9)) +. 1e-6 then
        QCheck2.Test.fail_reportf
          "exact %g > bound %g (log2 %g, exact_lp %b) for %s" exact bound
          b.Cost.log2 b.Cost.exact_lp (Ecq.to_string q)
      else true)

(* Component bounds are sound too: their sum (in log2, product of
   counts) dominates the whole query, which dominates the exact count. *)
let prop_component_bounds_sound =
  QCheck2.Test.make ~count:100
    ~name:"summed component bounds dominate the exact count"
    (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true)
    (fun (q, db) ->
      let exact = float_of_int (Exact.by_join_projection q db) in
      let cost = analyze_with db q in
      match cost.Cost.component_bounds with
      | [] -> true
      | bs ->
          let total =
            List.fold_left (fun acc b -> acc +. b.Cost.log2) 0.0 bs
          in
          let bound =
            if total = Float.neg_infinity then 0.0 else Float.pow 2.0 total
          in
          if exact > (bound *. (1.0 +. 1e-9)) +. 1e-6 then
            QCheck2.Test.fail_reportf
              "exact %g > product-of-components bound %g for %s" exact bound
              (Ecq.to_string q)
          else true)

(* A disequality-only variable gets a singleton hyperedge no atom
   matches; it ranges over the universe, so it costs [U], not +inf. *)
let prop_bound_finite =
  QCheck2.Test.make ~count:200
    ~name:"non-empty positive relations: finite query bound"
    (Gen.ecq_with_db ~allow_neg:false ~allow_diseq:true)
    (fun (q, db) ->
      QCheck2.assume
        (List.for_all
           (fun (symbol, _) ->
             Ac_relational.Relation.cardinality (Structure.relation db symbol) > 0)
           (Ecq.signature q));
      let b = (analyze_with db q).Cost.query_bound in
      if Float.is_finite b.Cost.log2 then true
      else
        QCheck2.Test.fail_reportf "bound log2 %g for %s" b.Cost.log2
          (Ecq.to_string q))

(* Exact's price falls from the full join's cover bound to the distinct
   free prefixes, capped by the old price; the estimators' prices only
   rise over their old formulas on the same bounds. The fpras's old
   log₂(1/ε²) is at most log₂ κ(ε) from ε = 0.25 up, where the floor 16
   binds; below it the sketch's c = 0.12 < 1 makes κ(ε) the smaller. *)
let prop_prices_move_one_way =
  QCheck2.Test.make ~count:200
    ~name:"exact price <= join bound; estimators >= old formulas"
    QCheck2.Gen.(
      triple
        (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true)
        (float_range 0.25 1.0) (float_range 0.01 0.49))
    (fun ((q, db), eps, delta) ->
      let t = analyze_with db q in
      let price rung =
        (List.find (fun a -> a.Cost.rung = rung) (Cost.rank ~eps ~delta t))
          .Cost.log2_cost
      in
      let clamp0 x = Float.max 0.0 x in
      let inv_eps2 = -2.0 *. Float.log2 eps in
      let sampling =
        Float.log2 (float_of_int (Ac_dlm.Edge_count.repetitions_for ~delta))
        +. inv_eps2
        +. (2.0 *. float_of_int (min t.Cost.star_size 24))
      in
      let old =
        [
          ( Cost.Fpras,
            Float.log2 (float_of_int (Acjr.repetitions_for ~delta))
            +. inv_eps2 +. clamp0 t.Cost.run_bound_log2 );
          ( Cost.Tree_dp,
            sampling
            +. float_of_int (t.Cost.treewidth + 1)
               *. Float.log2 (float_of_int (max 1 (Structure.universe_size db))) );
          (Cost.Generic_join, sampling +. clamp0 t.Cost.query_bound.Cost.log2);
        ]
      in
      let join =
        Float.max t.Cost.query_bound.Cost.log2 t.Cost.run_bound_log2
      in
      if price Cost.Exact > join then
        QCheck2.Test.fail_reportf "exact %g > join bound %g for %s"
          (price Cost.Exact) join (Ecq.to_string q)
      else
        List.for_all
          (fun (rung, was) ->
            price rung >= was -. 1e-9
            || QCheck2.Test.fail_reportf "%s %g < old %g at eps %g for %s"
                 (Cost.rung_name rung) (price rung) was eps (Ecq.to_string q))
          old)

(* [Cost.join_order] feeds [Generic_join.default_order] the catalog's
   counts; the exact rung's prefix is read off it, so it must be the
   order [Hom] binds in. *)
let hom_order q db =
  Ac_hom.Hom.order
    (Ac_hom.Hom.prepare ~strategy:Ac_hom.Hom.Backtracking
       (Approxcount.Assoc.hom_instance q db))

let corpus () =
  let dir =
    if Sys.file_exists "../examples/queries" then "../examples/queries"
    else "examples/queries"
  in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".acq")
  |> List.sort String.compare
  |> List.map (fun f ->
         ( Filename.chop_suffix f ".acq",
           Ecq.parse
             (String.trim
                (In_channel.with_open_bin (Filename.concat dir f)
                   In_channel.input_all)) ))

let test_join_order_corpus () =
  let corpus = corpus () in
  Alcotest.(check bool) "corpus found" true (List.length corpus >= 7);
  List.iter
    (fun seed ->
      let db =
        Ac_workload.Dbgen.random_structure
          ~rng:(Random.State.make [| seed |])
          ~universe_size:40
          [ ("E", 2, 200); ("R", 2, 200); ("P", 1, 30) ]
      in
      List.iter
        (fun (name, q) ->
          Alcotest.(check (array int))
            (Printf.sprintf "%s/%d: Cost.join_order = Hom.order" name seed)
            (hom_order q db)
            (Cost.join_order ~stats:(Cardinality.of_structure db) q))
        corpus)
    [ 11; 12 ]

let prop_join_order =
  QCheck2.Test.make ~count:200 ~name:"Cost.join_order = Hom.order"
    (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true)
    (fun (q, db) -> hom_order q db = Cost.join_order ~stats:(Cardinality.of_structure db) q)

(* The rule by hand: ascending by the smallest row count of an atom
   holding the variable, ties by index, a variable in no atom last; a
   negated atom counts at its complement's [U^arity - |R|] rows, and a
   symbol the catalog lacks bounds nothing. *)
let test_join_order_by_hand () =
  Alcotest.(check (array int))
    "default_order: ties by index, unbound last" [| 0; 2; 1 |]
    (Ac_join.Generic_join.default_order ~num_vars:3
       [ ([| 2 |], 5); ([| 0; 2 |], 5) ]);
  let rel symbol arity cardinality =
    {
      Cardinality.symbol;
      arity;
      cardinality;
      active_domain = 10;
      distinct = Array.make arity 10;
    }
  in
  let stats rels =
    { Cardinality.universe = 10; db_size = 0; nominal = false; stats = rels }
  in
  let names q order = Array.map (Ecq.var_name q) order in
  let q = Ecq.parse "ans(x, y) :- E(x, y), !P(x), Q(y)" in
  (* !P(x) is 10 - 8 = 2 rows: x before Q's 5; at P's own 8, y would lead *)
  Alcotest.(check (array string))
    "negated atom at its complement" [| "x"; "y" |]
    (names q
       (Cost.join_order
          ~stats:(stats [ rel "E" 2 50; rel "P" 1 8; rel "Q" 1 5 ])
          q));
  Alcotest.(check (array string))
    "negated atom near full" [| "y"; "x" |]
    (names q
       (Cost.join_order
          ~stats:(stats [ rel "E" 2 50; rel "P" 1 3; rel "Q" 1 5 ])
          q));
  (* without Q in the catalog y is bounded by E's 50 alone *)
  Alcotest.(check (array string))
    "missing symbol bounds nothing" [| "x"; "y" |]
    (names q
       (Cost.join_order ~stats:(stats [ rel "E" 2 50; rel "P" 1 3 ]) q))

(* On a friends graph the 2-path projection has a few thousand answers
   among |U|² = 14,400 free prefixes: the exact rung answers in tens of
   milliseconds where the FPRAS takes hundreds, and Auto must pick it. *)
let test_friends_path_exact () =
  let q = Ecq.parse "ans(x, y) :- F(x, z), F(z, y)" in
  List.iter
    (fun seed ->
      let db =
        Ac_workload.Dbgen.friends_database
          ~rng:(Random.State.make [| seed |])
          ~n:120 ~avg_degree:6.0
      in
      let cost = analyze_with db q in
      Alcotest.(check string)
        (Printf.sprintf "friends-120 seed %d: chosen" seed)
        "exact"
        (Cost.rung_name (Cost.chosen cost));
      let exec = Engine.make ~jobs:1 ~seed:3 () in
      match
        Planner.count_governed ~exec ~classification:(Classify.classify q) ~cost
          ~eps:0.25 ~delta:0.1 q db
      with
      | Error e -> Alcotest.failf "governed run failed: %s" (Error.message e)
      | Ok g ->
          Alcotest.(check string) "answered by" "exact"
            (Planner.rung_name g.Planner.rung);
          Alcotest.(check (float 0.0)) "exact count"
            (float_of_int (Exact.by_join_projection q db))
            g.Planner.estimate)
    [ 1; 2; 3 ]

(* Every variable of the fleet benchmark's query is free, and the last
   in the join order, z, is held by one atom: the join counts that level
   in bulk, so exact pays per (x, y) prefix, not per answer. On the
   fleet's G(160, 0.08) graph the single-node request (eps 0.4) used to
   rank tree-dp first (2^21.0 against exact's 2^22.0) and took ~250 ms
   where exact takes under 1 ms. *)
let test_fleet_graph_bulk_exact () =
  let q = Ecq.parse "ans(x, y, z) :- E(x, y), E(x, z), y != z" in
  let db =
    Ac_workload.Graph.to_structure
      (Ac_workload.Graph.random_gnp ~rng:(Random.State.make [| 41 |]) 160 0.08)
  in
  let cost =
    Cost.analyze ~eps:0.4 ~delta:0.1 ~stats:(Cardinality.of_structure db) q
      (Classify.classify q)
  in
  Alcotest.(check string) "ranked first" "exact"
    (Cost.rung_name (List.hd cost.Cost.alternatives).Cost.rung);
  Alcotest.(check (float 1e-9)) "last level: log2 (1 + one diseq)" 1.0
    cost.Cost.extension_log2;
  let exec = Engine.make ~jobs:1 ~seed:3 () in
  match
    Planner.count_governed ~exec ~classification:(Classify.classify q) ~cost
      ~eps:0.4 ~delta:0.1 q db
  with
  | Error e -> Alcotest.failf "governed run failed: %s" (Error.message e)
  | Ok g ->
      Alcotest.(check string) "answered by" "exact"
        (Planner.rung_name g.Planner.rung);
      Alcotest.(check (float 0.0)) "exact count"
        (float_of_int (Exact.by_join_projection q db))
        g.Planner.estimate

(* +inf (unbounded) renders as [null] and "inf", never as the cheapest
   value: [-1e9] and "-inf" stay reserved for log2 0. *)
let test_non_finite_rendering () =
  let db =
    Structure.of_facts ~universe_size:3 [ ("E", [| 0; 1 |]); ("E", [| 1; 2 |]) ]
  in
  let cost = analyze_with db (Ecq.parse "ans(x) :- E(x, y)") in
  let exact = List.find (fun a -> a.Cost.rung = Cost.Exact) cost.Cost.alternatives in
  let alt log2_cost = { exact with Cost.log2_probe_cost = log2_cost; log2_cost } in
  let field name a =
    match Cost.alternative_to_json a with
    | Ac_analysis.Json.Obj kvs -> List.assoc name kvs
    | _ -> Alcotest.fail "alternative is not an object"
  in
  Alcotest.(check bool) "+inf cost is null" true
    (field "log2_cost" (alt Float.infinity) = Ac_analysis.Json.Null);
  Alcotest.(check bool) "+inf probe cost is null" true
    (field "log2_probe_cost" (alt Float.infinity) = Ac_analysis.Json.Null);
  Alcotest.(check bool) "-inf cost is -1e9" true
    (field "log2_cost" (alt Float.neg_infinity) = Ac_analysis.Json.Float (-1e9));
  let row log2_cost =
    let text =
      Format.asprintf "%a" Cost.pp { cost with Cost.alternatives = [ alt log2_cost ] }
    in
    List.find
      (fun l -> String.starts_with ~prefix:"exact" (String.trim l))
      (String.split_on_char '\n' text)
    |> String.split_on_char ' '
    |> List.filter (( <> ) "")
  in
  Alcotest.(check string) "pp prints inf" "inf" (List.nth (row Float.infinity) 1);
  Alcotest.(check string) "pp prints -inf" "-inf"
    (List.nth (row Float.neg_infinity) 1)

(* ---------- estimate preservation under reordering ----------

   An estimate depends only on (rung, seed, eps, delta) — the engine
   seed is split by rung ordinal — so reaching the generic-join rung
   through the ladder must produce the value the dispatch gives when run
   directly on generic-join's ordinal split, bit for bit. Chaos-fail
   every ladder step before the generic-join rung and compare. *)

let reorder_db () =
  let u = 30 in
  let s = Structure.create ~universe_size:u in
  Structure.declare s "E" ~arity:2;
  for i = 0 to u - 1 do
    Structure.add_fact s "E" [| i; ((i * 7) + 3) mod u |];
    Structure.add_fact s "E" [| i; ((i * 11) + 5) mod u |];
    Structure.add_fact s "E" [| (i * 13) mod u; i |]
  done;
  s

let test_estimate_preserving_reorder () =
  let db = reorder_db () in
  let q = Ecq.parse "ans(x, y) :- E(x, y), E(y, z), !E(x, z), x != z" in
  let eps = 0.25 and delta = 0.1 in
  let cost = analyze_with db q in
  let ladder = Ladder.build ~eps ~delta cost in
  (* how many ladder steps precede the first at-eps generic-join *)
  let costed_prefix =
    let rec go n = function
      | [] -> None
      | s :: _
        when s.Ladder.rung = Cost.Generic_join && not s.Ladder.relaxed ->
          Some n
      | _ :: rest -> go (n + 1) rest
    in
    go 0 ladder
  in
  match costed_prefix with
  | None -> Alcotest.fail "ladder lost the generic-join rung"
  | Some k ->
      let chaos =
        Chaos.create
          ~plan:(List.init k (fun i -> (i + 1, Chaos.Fail "forced")))
          ~seed:1 ()
      in
      let exec = Engine.make ~jobs:1 ~seed:42 () in
      let g =
        match
          Planner.count_governed ~exec ~chaos ~classification:(Classify.classify q)
            ~cost ~eps ~delta q db
        with
        | Ok g -> g
        | Error e -> Alcotest.failf "governed run failed: %s" (Error.message e)
      in
      let direct, _ =
        Planner.run_rung ~budget:Ac_runtime.Budget.none
          ~exec:(Engine.split exec (Ac_analysis.Rung.ordinal Cost.Generic_join))
          ~eps ~delta Cost.Generic_join q db
      in
      Alcotest.(check string)
        "ladder reached generic-join" "generic-join"
        (Planner.rung_name g.Planner.rung);
      Alcotest.(check bool)
        "bit-identical estimates: ladder step vs direct dispatch" true
        (Int64.equal (Int64.bits_of_float direct)
           (Int64.bits_of_float g.Planner.estimate));
      Alcotest.(check (float 1e-12)) "eps not relaxed" eps g.Planner.eps_used

(* ---------- the ε-degradation ladder ---------- *)

let test_ladder_shape () =
  let db = reorder_db () in
  let q = Ecq.parse "ans(x, y) :- E(x, y), E(y, z), !E(x, z), x != z" in
  let eps = 0.25 and delta = 0.1 in
  let cost = analyze_with db q in
  let ladder = Ladder.build ~eps ~delta cost in
  (match List.rev ladder with
  | last :: _ ->
      Alcotest.(check string) "ends with partial" "partial"
        (Cost.rung_name last.Ladder.rung)
  | [] -> Alcotest.fail "empty ladder");
  (match ladder with
  | head :: _ ->
      Alcotest.(check string) "head is the chosen rung"
        (Cost.rung_name (Cost.chosen cost))
        (Cost.rung_name head.Ladder.rung)
  | [] -> ());
  List.iter
    (fun s ->
      if s.Ladder.relaxed then begin
        Alcotest.(check bool) "relaxed eps coarser" true (s.Ladder.eps > eps);
        Alcotest.(check bool) "relaxed eps capped" true
          (s.Ladder.eps <= Ladder.eps_cap)
      end
      else
        Alcotest.(check (float 1e-12)) "unrelaxed step at requested eps" eps
          s.Ladder.eps)
    ladder;
  (* a relaxed completion reports the coarser eps but keeps the
     guarantee: chaos-fail every guaranteed at-eps step *)
  let at_eps = List.length (List.filter (fun s -> not s.Ladder.relaxed) ladder) - 1 in
  let chaos =
    Chaos.create
      ~plan:(List.init at_eps (fun i -> (i + 1, Chaos.Fail "forced")))
      ~seed:1 ()
  in
  let exec = Engine.make ~jobs:1 ~seed:7 () in
  match
    Planner.count_governed ~exec ~chaos ~classification:(Classify.classify q)
      ~cost ~eps ~delta q db
  with
  | Error e -> Alcotest.failf "relaxed run failed: %s" (Error.message e)
  | Ok g ->
      Alcotest.(check bool) "relaxed eps reported" true
        (g.Planner.eps_used > eps);
      Alcotest.(check bool) "guarantee intact at relaxed eps" true
        g.Planner.guarantee;
      Alcotest.(check bool) "marked degraded" true g.Planner.degraded

(* ---------- the governed chain is the ladder ----------

   With chaos failing the first i rung guards, ladder step i answers, at
   that step's eps; with every step failed, the last (injected) error
   surfaces; with no faults, the cost model's chosen rung answers. *)

let prop_chain_is_ladder =
  QCheck2.Test.make ~count:40 ~name:"the governed chain is the ladder"
    (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true)
    (fun (q, db) ->
      let eps = 0.25 and delta = 0.1 in
      let report = Report.analyze ~db q in
      let cost = Option.get report.Report.cost in
      let ladder = Ladder.build ~eps ~delta cost in
      let run i =
        let chaos =
          Chaos.create
            ~plan:(List.init i (fun k -> (k + 1, Chaos.Fail "forced")))
            ~seed:1 ()
        in
        Planner.count_governed ~exec:(Engine.make ~jobs:1 ~seed:5 ()) ~chaos
          ~classification:(Report.classification_exn report) ~cost ~eps ~delta
          q db
      in
      List.iteri
        (fun i (step : Ladder.step) ->
          match run i with
          | Error e ->
              QCheck2.Test.fail_reportf "step %d (%s) failed: %s" i
                (Cost.rung_name step.Ladder.rung) (Error.message e)
          | Ok g ->
              if g.Planner.rung <> step.Ladder.rung
                 || g.Planner.eps_used <> step.Ladder.eps
              then
                QCheck2.Test.fail_reportf "after %d faults: %s@eps=%g, not %s@eps=%g" i
                  (Planner.rung_name g.Planner.rung) g.Planner.eps_used
                  (Cost.rung_name step.Ladder.rung) step.Ladder.eps)
        ladder;
      (match run (List.length ladder) with
      | Error (Error.Fault _) -> ()
      | Error e ->
          QCheck2.Test.fail_reportf "exhausted ladder: wrong error class %s"
            (Error.class_name e)
      | Ok _ -> QCheck2.Test.fail_reportf "exhausted ladder answered");
      match run 0 with
      | Ok g -> g.Planner.rung = Cost.chosen cost
      | Error e -> QCheck2.Test.fail_reportf "no faults: %s" (Error.message e))

(* ---------- costed rung choice ---------- *)

let test_always_empty_ranks_exact_first () =
  let db = reorder_db () in
  let q = Ecq.parse "ans(x) :- E(x, y), !E(x, y)" in
  let cost = analyze_with db q in
  Alcotest.(check bool) "always-empty flagged" true cost.Cost.always_empty;
  Alcotest.(check string) "exact wins outright" "exact"
    (Cost.rung_name (Cost.chosen cost));
  Alcotest.(check bool) "bound is zero" true
    (cost.Cost.query_bound.Cost.log2 = Float.neg_infinity)

let test_empty_relation_bound_zero () =
  let s = Structure.create ~universe_size:4 in
  Structure.declare s "E" ~arity:2;
  let q = Ecq.parse "ans(x) :- E(x, y)" in
  let cost = analyze_with s q in
  Alcotest.(check bool) "empty relation: provably empty" true
    (cost.Cost.query_bound.Cost.log2 = Float.neg_infinity)

(* ---------- cardinality stats ---------- *)

let test_distinct_counts () =
  let s = Structure.create ~universe_size:10 in
  Structure.declare s "E" ~arity:2;
  Structure.add_fact s "E" [| 0; 1 |];
  Structure.add_fact s "E" [| 0; 2 |];
  Structure.add_fact s "E" [| 1; 2 |];
  Structure.add_fact s "E" [| 0; 1 |] |> ignore;
  let check_stats label db =
    let stats = Cardinality.of_structure db in
    Alcotest.(check bool) (label ^ ": measured") false stats.Cardinality.nominal;
    match Cardinality.find stats "E" with
    | None -> Alcotest.fail (label ^ ": E missing")
    | Some e ->
        Alcotest.(check int) (label ^ ": cardinality") 3 e.Cardinality.cardinality;
        Alcotest.(check (array int)) (label ^ ": distinct per column")
          [| 2; 2 |] e.Cardinality.distinct;
        Alcotest.(check int) (label ^ ": active domain") 3
          e.Cardinality.active_domain
  in
  (* builder phase scans; sealed phase reads the column dictionaries —
     both must agree *)
  check_stats "builder" s;
  check_stats "sealed" (Structure.seal s)

let test_nominal_stats () =
  let stats = Cardinality.nominal [ ("E", 2); ("P", 1) ] in
  Alcotest.(check bool) "flagged nominal" true stats.Cardinality.nominal;
  match Cardinality.find stats "P" with
  | None -> Alcotest.fail "P missing from nominal stats"
  | Some p ->
      Alcotest.(check int) "nominal cardinality" Cardinality.nominal_cardinality
        p.Cardinality.cardinality;
      Alcotest.(check int) "distinct length = arity" 1
        (Array.length p.Cardinality.distinct)

(* The report carries the cost exactly when a database was given — what
   the plan cache's fingerprint-keyed entries rely on. *)
let test_report_carries_cost () =
  let db = reorder_db () in
  let q = Ecq.parse "ans(x) :- E(x, y)" in
  Alcotest.(check bool) "with db: cost present" true
    ((Report.analyze ~db q).Report.cost <> None);
  Alcotest.(check bool) "without db: no cost" true
    ((Report.analyze q).Report.cost = None)

(* ---------- the memoised report equals a memo-free analysis ----------

   [Report.analyze] memoises the query-only analysis per canonical
   query key and only instantiates it per database. Against each db
   along a live mutation sequence, the memoised report — first call and
   memo hit alike — must equal [Classify.classify] + [Cost.analyze] +
   [Lints.run] computed from scratch: every float bit for bit, the rest
   structurally. *)

module Classification = Ac_analysis.Classification
module Lints = Ac_analysis.Lints
module Live = Ac_live.Live

let bits = Int64.bits_of_float

let bound_bits (b : Cost.bound) = (bits b.Cost.log2, b.Cost.exact_lp, b.Cost.degraded)

let alternative_bits (a : Cost.alternative) =
  ( a.Cost.rung,
    a.Cost.applicable,
    a.Cost.guaranteed,
    bits a.Cost.log2_probes,
    bits a.Cost.log2_probe_cost,
    bits a.Cost.log2_cost,
    a.Cost.note )

let cost_bits (t : Cost.t) =
  ( (bits t.Cost.eps, bits t.Cost.delta, t.Cost.stats),
    ( bound_bits t.Cost.query_bound,
      List.map bound_bits t.Cost.component_bounds,
      List.map bound_bits t.Cost.bag_bounds ),
    (bits t.Cost.run_bound_log2, bits t.Cost.free_prefix_log2, bits t.Cost.extension_log2),
    ( t.Cost.static_choice,
      t.Cost.is_cq,
      t.Cost.always_empty,
      t.Cost.num_vars,
      t.Cost.treewidth,
      t.Cost.star_size ),
    List.map alternative_bits t.Cost.alternatives )

let classification_bits (c : Classification.t) =
  (bits c.Classification.fhw, { c with Classification.fhw = 0.0 })

let report_bits (r : Report.t) =
  ( Option.map classification_bits r.Report.classification,
    r.Report.diagnostics,
    Option.map cost_bits r.Report.cost )

let memo_free db q =
  let c = Classify.classify q in
  let cost = Cost.analyze ~stats:(Cardinality.of_structure db) q c in
  ( Some (classification_bits c),
    Lints.run ~db ~cost q c,
    Some (cost_bits cost) )

let memo_agrees db q =
  let expected = memo_free db q in
  report_bits (Report.analyze ~db q) = expected
  && report_bits (Report.analyze ~db q) = expected

(* Insert/delete batches over every relation of the db; returns the
   snapshot after each batch. *)
let mutated_snapshots ~rng ~batches db =
  let live = Live.Db.of_structure db in
  let u = Structure.universe_size db in
  let rels =
    List.map
      (fun name -> (name, Ac_relational.Relation.arity (Structure.relation db name)))
      (Structure.symbols db)
  in
  List.init batches (fun _ ->
      let ops =
        List.init (1 + Random.State.int rng 6) (fun _ ->
            let rel, arity = List.nth rels (Random.State.int rng (List.length rels)) in
            let tuple = Array.init arity (fun _ -> Random.State.int rng u) in
            if Random.State.bool rng then Live.Db.Insert { rel; tuple }
            else Live.Db.Delete { rel; tuple })
      in
      (match Live.Db.apply live ops with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "mutation refused: %s" (Error.message e));
      Live.Db.snapshot live)

let test_memo_corpus () =
  let corpus = corpus () in
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let db =
        Ac_workload.Dbgen.random_structure ~rng ~universe_size:12
          [ ("E", 2, 40); ("R", 2, 30); ("P", 1, 6) ]
      in
      List.iteri
        (fun version db ->
          List.iter
            (fun (name, q) ->
              if not (memo_agrees db q) then
                Alcotest.failf "%s, seed %d, version %d: memoised report differs"
                  name seed version)
            corpus)
        (db :: mutated_snapshots ~rng ~batches:6 db))
    [ 3; 4 ]

let prop_memo_agrees =
  QCheck2.Test.make ~count:60 ~name:"memoised Report.analyze = memo-free analysis"
    QCheck2.Gen.(pair (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true) int)
    (fun ((q, db), seed) ->
      let rng = Random.State.make [| seed |] in
      List.for_all
        (fun db -> memo_agrees db q)
        (db :: mutated_snapshots ~rng ~batches:4 db))

(* More distinct queries than the memo holds: it stays bounded, and a
   query analysed again after its entry was dropped is still right. *)
let test_memo_bounded () =
  let db =
    Ac_workload.Dbgen.random_structure ~rng:(Random.State.make [| 5 |])
      ~universe_size:10 [ ("E", 2, 30) ]
  in
  let query i =
    Ecq.parse (Printf.sprintf "ans(x) :- E(x, y), E(y, z), x != z, R%d(z, x)" i)
  in
  for i = 0 to Report.memo_capacity + 40 do
    ignore (Report.analyze ~db (query i));
    if Report.memo_length () > Report.memo_capacity then
      Alcotest.failf "memo holds %d keys, capacity %d" (Report.memo_length ())
        Report.memo_capacity
  done;
  Alcotest.(check bool) "an evicted query re-analyses correctly" true
    (memo_agrees db (query 0))

(* Four domains analyse the corpus at once, against the sequential
   reference. *)
let test_memo_concurrent () =
  let db =
    Ac_workload.Dbgen.random_structure ~rng:(Random.State.make [| 6 |])
      ~universe_size:12 [ ("E", 2, 40); ("R", 2, 30); ("P", 1, 6) ]
  in
  let corpus = List.map snd (corpus ()) in
  let expected = List.map (memo_free db) corpus in
  let worker () =
    List.for_all
      (fun _ ->
        List.for_all2
          (fun q e -> report_bits (Report.analyze ~db q) = e)
          corpus expected)
      (List.init 25 Fun.id)
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  Alcotest.(check (list bool)) "every domain agrees" [ true; true; true; true ]
    (List.map Domain.join domains)

let tests =
  [
    Alcotest.test_case "rat: overflow is typed" `Quick test_rat_overflow;
    QCheck_alcotest.to_alcotest prop_bound_sound;
    QCheck_alcotest.to_alcotest prop_component_bounds_sound;
    QCheck_alcotest.to_alcotest prop_chain_is_ladder;
    Alcotest.test_case "reordering is estimate-preserving" `Quick
      test_estimate_preserving_reorder;
    Alcotest.test_case "ladder: shape and relaxed completion" `Quick
      test_ladder_shape;
    Alcotest.test_case "always-empty ranks exact first" `Quick
      test_always_empty_ranks_exact_first;
    Alcotest.test_case "empty relation: bound zero" `Quick
      test_empty_relation_bound_zero;
    Alcotest.test_case "cardinality: distinct counts" `Quick
      test_distinct_counts;
    Alcotest.test_case "cardinality: nominal stats" `Quick test_nominal_stats;
    Alcotest.test_case "report carries cost iff db" `Quick
      test_report_carries_cost;
    Alcotest.test_case "fpras price mirrors the sketch size" `Quick
      test_fpras_sketch_price;
    QCheck_alcotest.to_alcotest prop_bound_finite;
    QCheck_alcotest.to_alcotest prop_prices_move_one_way;
    QCheck_alcotest.to_alcotest prop_join_order;
    Alcotest.test_case "join order mirrors Hom on the corpus" `Quick
      test_join_order_corpus;
    Alcotest.test_case "join order by hand" `Quick test_join_order_by_hand;
    Alcotest.test_case "fleet graph: bulk last level ranks exact first" `Quick
      test_fleet_graph_bulk_exact;
    Alcotest.test_case "friends 2-path: Auto answers exactly" `Quick
      test_friends_path_exact;
    Alcotest.test_case "non-finite costs: null and inf" `Quick
      test_non_finite_rendering;
    Alcotest.test_case "report memo = memo-free on the corpus" `Quick
      test_memo_corpus;
    QCheck_alcotest.to_alcotest prop_memo_agrees;
    Alcotest.test_case "report memo stays bounded" `Quick test_memo_bounded;
    Alcotest.test_case "report memo under 4 domains" `Quick
      test_memo_concurrent;
  ]
