(* The sealed columnar storage layer: seal semantics, complement views,
   fingerprint stability, the galloping kernels, the join's enumeration
   order against an ordered brute-force reference, and bit-identical
   estimates across jobs counts. *)

module Relation = Ac_relational.Relation
module Structure = Ac_relational.Structure
module Column = Ac_relational.Column
module Gallop = Ac_kernels.Gallop
module Generic_join = Ac_join.Generic_join
module Ecq = Ac_query.Ecq
module Fptras = Approxcount.Fptras
module Exact = Approxcount.Exact
module Assoc = Approxcount.Assoc
module Hom = Ac_hom.Hom
module Budget = Ac_runtime.Budget
module Error = Ac_runtime.Error

let is_sealed_mutation = function
  | Error.E (Error.Sealed_mutation _) -> true
  | _ -> false

(* -- seal semantics ------------------------------------------------ *)

let test_seal_freezes_relation () =
  let r = Relation.create ~arity:2 in
  Relation.add r [| 0; 1 |];
  Relation.add r [| 1; 0 |];
  Alcotest.(check bool) "not sealed yet" false (Relation.is_sealed r);
  Relation.seal r;
  Relation.seal r (* idempotent *);
  Alcotest.(check bool) "sealed" true (Relation.is_sealed r);
  Alcotest.(check int) "cardinality preserved" 2 (Relation.cardinality r);
  Alcotest.(check bool) "mem works sealed" true (Relation.mem r [| 1; 0 |]);
  (match Relation.add r [| 2; 2 |] with
  | exception e when is_sealed_mutation e -> ()
  | exception e -> raise e
  | () -> Alcotest.fail "add after seal must raise Sealed_mutation");
  Alcotest.(check int) "exit code 20" 20
    (Error.exit_code (Error.Sealed_mutation "x"))

let test_seal_freezes_structure () =
  let db = Structure.of_facts ~universe_size:3 [ ("E", [| 0; 1 |]) ] in
  let db = Structure.seal db in
  Alcotest.(check bool) "structure sealed" true (Structure.is_sealed db);
  (match Structure.add_fact db "E" [| 1; 2 |] with
  | exception e when is_sealed_mutation e -> ()
  | exception e -> raise e
  | () -> Alcotest.fail "add_fact after seal must raise Sealed_mutation");
  (* copy thaws: the copy accepts writes, the original stays frozen *)
  let thawed = Structure.copy db in
  Structure.add_fact thawed "E" [| 1; 2 |];
  Alcotest.(check int) "thawed copy grew" 2
    (Relation.cardinality (Structure.relation thawed "E"));
  Alcotest.(check int) "original untouched" 1
    (Relation.cardinality (Structure.relation db "E"))

let test_sealed_layout () =
  let r = Relation.of_list ~arity:2 [ [| 2; 0 |]; [| 0; 5 |]; [| 0; 3 |]; [| 2; 0 |] ] in
  Alcotest.(check bool) "builder has no cols" true (Relation.sealed_cols r = None);
  Relation.seal r;
  match Relation.sealed_cols r with
  | None -> Alcotest.fail "sealed relation must expose cols"
  | Some c ->
      Alcotest.(check int) "deduplicated rows" 3 c.Relation.rows;
      let col j i = Column.get c.Relation.columns.(j) i in
      (* lex order: (0,3) (0,5) (2,0) *)
      Alcotest.(check (list int)) "column 0" [ 0; 0; 2 ] [ col 0 0; col 0 1; col 0 2 ];
      Alcotest.(check (list int)) "column 1" [ 3; 5; 0 ] [ col 1 0; col 1 1; col 1 2 ];
      Alcotest.(check (list int)) "dict0"
        [ 0; 2 ]
        (List.init (Column.length c.Relation.dict0) (Column.get c.Relation.dict0));
      Alcotest.(check (list int)) "offsets0"
        [ 0; 2; 3 ]
        (List.init (Column.length c.Relation.offsets0) (Column.get c.Relation.offsets0))

(* -- complement views ---------------------------------------------- *)

let test_complement_view () =
  let base = Relation.of_list ~arity:2 [ [| 0; 1 |] ] in
  let v = Relation.complement_view ~universe_size:3 base in
  Alcotest.(check bool) "is complement" true (Relation.is_complement v);
  Alcotest.(check int) "cardinality 3^2 - 1" 8 (Relation.cardinality v);
  Alcotest.(check bool) "base tuple excluded" false (Relation.mem v [| 0; 1 |]);
  Alcotest.(check bool) "other tuple included" true (Relation.mem v [| 1; 0 |]);
  (* lazy iteration is the U^2 sweep less the base, in canonical order *)
  let seen = ref [] in
  Relation.iter (fun t -> seen := Array.copy t :: !seen) v;
  let lazy_tuples = List.rev !seen in
  let brute =
    List.concat_map
      (fun a ->
        List.filter_map
          (fun b -> if (a, b) = (0, 1) then None else Some [| a; b |])
          [ 0; 1; 2 ])
      [ 0; 1; 2 ]
  in
  Alcotest.(check (list (array int))) "view = brute-force U^2 sweep" brute lazy_tuples;
  Alcotest.(check bool) "ascending" true (List.sort compare lazy_tuples = lazy_tuples);
  (* complement of complement shares the base *)
  match Relation.complement_base (Relation.complement_view ~universe_size:3 v) with
  | Some _ -> Alcotest.fail "double complement must not nest views"
  | None ->
      Alcotest.(check bool) "double complement = base" true
        (Relation.equal base (Relation.complement_view ~universe_size:3 v))

(* -- fingerprint stability (builder vs sealed) --------------------- *)

let test_fingerprint_stability () =
  let facts =
    [ ("E", [| 2; 0 |]); ("E", [| 0; 1 |]); ("E", [| 1; 2 |]); ("P", [| 1 |]) ]
  in
  let builder = Structure.of_facts ~universe_size:4 facts in
  let fp_builder = Structure.fingerprint builder in
  let sealed = Structure.seal (Structure.of_facts ~universe_size:4 facts) in
  Alcotest.(check string) "builder = sealed" fp_builder (Structure.fingerprint sealed);
  (* insertion order never leaks into the fingerprint *)
  let reordered = Structure.of_facts ~universe_size:4 (List.rev facts) in
  Alcotest.(check string) "order independent" fp_builder
    (Structure.fingerprint reordered);
  (* sealing in place doesn't change it either *)
  let fp_after = Structure.fingerprint (Structure.seal builder) in
  Alcotest.(check string) "seal in place" fp_builder fp_after

(* -- galloping kernels --------------------------------------------- *)

let test_gallop_search () =
  let col = Column.of_array [| 1; 3; 3; 3; 7; 9 |] in
  let hi = Column.length col in
  Alcotest.(check int) "lower absent" 1 (Gallop.lower col ~lo:0 ~hi 2);
  Alcotest.(check int) "lower run start" 1 (Gallop.lower col ~lo:0 ~hi 3);
  Alcotest.(check int) "upper run end" 4 (Gallop.upper col ~lo:0 ~hi 3);
  let range x =
    let l = Gallop.lower col ~lo:0 ~hi x in
    (l, Gallop.upper col ~lo:l ~hi x)
  in
  Alcotest.(check (pair int int)) "equal_range present" (1, 4) (range 3);
  Alcotest.(check (pair int int)) "equal_range absent" (4, 4) (range 5);
  Alcotest.(check int) "beyond end" hi (Gallop.lower col ~lo:0 ~hi 100);
  Alcotest.(check int) "restricted lo" 4 (Gallop.lower col ~lo:4 ~hi 3)

(* [Gallop.intersect_into] over whole arrays, with scratch sized here *)
let intersect runs f =
  let k = Array.length runs in
  Gallop.intersect_into ~pos:(Array.make k 0) ~bounds:(Array.make (2 * k) 0)
    runs f

let test_intersect_arrays () =
  let common arrays =
    let runs =
      Array.map
        (fun a ->
          let col = Column.of_array a in
          { Gallop.col; lo = 0; hi = Column.length col })
        arrays
    in
    let out = ref [] in
    intersect runs (fun v _ ->
        out := v :: !out;
        true);
    Array.of_list (List.rev !out)
  in
  let check name want arrays =
    Alcotest.(check (array int)) name want (common arrays)
  in
  check "two runs" [| 2; 5 |] [| [| 1; 2; 5; 9 |]; [| 2; 3; 5 |] |];
  check "duplicates collapse" [| 2 |] [| [| 2; 2; 2 |]; [| 1; 2; 2 |] |];
  check "three runs" [| 4 |] [| [| 1; 4 |]; [| 4; 5 |]; [| 0; 4; 9 |] |];
  check "disjoint" [||] [| [| 1; 3 |]; [| 2; 4 |] |];
  check "one empty" [||] [| [| 1; 2 |]; [||]; [| 1 |] |];
  check "no runs" [||] [||];
  check "singletons" [| 7 |] [| [| 7 |]; [| 7 |]; [| 7 |] |];
  check "single run dedups" [| 1; 2 |] [| [| 1; 1; 2 |] |];
  check "single run" [| 0; 3; 8 |] [| [| 0; 3; 3; 3; 8 |] |]

let test_intersect_bounds () =
  (* the scratch ranges handed to the callback bracket exactly the
     occurrences of the value in each run *)
  let a = Column.of_array [| 1; 2; 2; 4 |] and b = Column.of_array [| 2; 2; 2; 4; 4 |] in
  let runs =
    [|
      { Gallop.col = a; lo = 0; hi = Column.length a };
      { Gallop.col = b; lo = 0; hi = Column.length b };
    |]
  in
  let got = ref [] in
  intersect runs (fun v bounds ->
      got := (v, Array.to_list bounds) :: !got;
      true);
  Alcotest.(check (list (pair int (list int))))
    "values and ranges"
    [ (2, [ 1; 3; 0; 3 ]); (4, [ 3; 4; 3; 5 ]) ]
    (List.rev !got);
  (* one run, from an inner slice: each distinct value's own range *)
  let got = ref [] in
  intersect [| { Gallop.col = b; lo = 1; hi = 4 } |] (fun v bounds ->
      got := (v, [ bounds.(0); bounds.(1) ]) :: !got;
      true);
  Alcotest.(check (list (pair int (list int))))
    "single-run ranges"
    [ (2, [ 1; 3 ]); (4, [ 3; 4 ]) ]
    (List.rev !got)

let test_intersect_stops () =
  (* a callback returning [false] ends the scan: no later common value
     is visited, on the two-run loop and on the k-run leapfrog alike *)
  let run a =
    let col = Column.of_array a in
    { Gallop.col; lo = 0; hi = Column.length col }
  in
  let calls runs =
    let n = ref 0 in
    intersect runs (fun _ _ ->
        incr n;
        false);
    !n
  in
  Alcotest.(check int) "one run" 1 (calls [| run [| 1; 2; 3 |] |]);
  Alcotest.(check int) "two runs" 1
    (calls [| run [| 1; 2; 3; 5 |]; run [| 1; 2; 3; 4; 5 |] |]);
  Alcotest.(check int) "three runs" 1
    (calls [| run [| 1; 2; 3 |]; run [| 1; 2; 3 |]; run [| 0; 1; 2; 3 |] |])

(* -- membership ------------------------------------------------------- *)

(* [Relation.mem_at] reads its tuple through a scope, in place. The join
   kernels' reference ([Test_join.brute]) decides membership through the
   same code, so this pins it against list membership over the tuples the
   relation was built from, on a builder, a sealed relation and a
   complement view, whose universe check must reject values outside
   [0, u). [Relation.mem] of the read tuple must agree. *)
let prop_mem_at_matches_list =
  QCheck2.Test.make ~count:400 ~name:"mem_at = list membership"
    QCheck2.Gen.(
      pair (int_range 1 3) (int_range 1 4) >>= fun (arity, u) ->
      quad (int_range 0 2)
        (list_size (int_range 0 8) (array_repeat arity (int_range 0 (u - 1))))
        (array_repeat arity (int_range 0 3))
        (array_repeat 4 (int_range (-1) (u + 1)))
      >|= fun (kind, tuples, scope, assignment) ->
      (arity, u, kind, tuples, scope, assignment))
    (fun (arity, u, kind, tuples, scope, assignment) ->
      let base = Relation.of_list ~arity tuples in
      let r =
        match kind with
        | 0 -> base
        | 1 ->
            Relation.seal base;
            base
        | _ -> Relation.complement_view ~universe_size:u base
      in
      let t = Array.map (fun v -> assignment.(v)) scope in
      let in_base = List.exists (fun b -> b = t) tuples in
      let want =
        if kind < 2 then in_base
        else Array.for_all (fun v -> v >= 0 && v < u) t && not in_base
      in
      Relation.mem_at r scope assignment = want && Relation.mem r t = want)

(* -- sorted projections ---------------------------------------------- *)

(* [Relation.projection] (an index sort with in-place dedup) against the
   tuple-sorting reference build, field by field. Values are small and
   dense, straddle zero, or span far more than the row count. *)
let prop_projection_matches_sorted =
  QCheck2.Test.make ~count:400 ~name:"projection = sorted-tuple build"
    QCheck2.Gen.(
      int_range 1 3 >>= fun arity ->
      let pos = int_range 0 (arity - 1) in
      quad
        (oneof
           [ return (0, 6); return (3, 12); return (-5, 5); return (0, 1_000_000) ])
        (int_range 0 40)
        (list_size (int_range 1 3) pos)
        (list_size (int_range 0 2) (pair pos pos))
      >>= fun ((lo, hi), rows, positions, equalities) ->
      list_repeat rows (array_repeat arity (int_range lo hi))
      >>= fun tuples ->
      return (arity, tuples, Array.of_list positions, Array.of_list equalities))
    (fun (arity, tuples, positions, equalities) ->
      let r = Relation.of_list ~arity tuples in
      Relation.seal r;
      let got = Relation.projection r ~positions ~equalities in
      let want = Ac_test_support.Sorted_projection.build r ~positions ~equalities in
      let cells (c : Relation.cols) = Array.map Column.to_array c.columns in
      cells got = cells want
      && got.rows = want.rows
      && Column.to_array got.dict0 = Column.to_array want.dict0
      && Column.to_array got.offsets0 = Column.to_array want.offsets0)

(* -- enumeration order against brute force ------------------------ *)

(* Random atom sets in the style of test_join, including a complement
   view so the filter-atom path is exercised. The view's universe is
   sometimes smaller than the join's, so a candidate outside it must be
   rejected as [Relation.mem] rejects it. *)
let gen_atoms =
  QCheck2.Gen.(
    let num_vars = 3 and universe = 3 in
    list_size (int_range 1 4)
      (pair
         (list_size (int_range 1 2) (int_range 0 (num_vars - 1)))
         (list_size (int_range 0 8)
            (list_size (int_range 1 2) (int_range 0 (universe - 1)))))
    >>= fun raw_atoms ->
    bool >>= fun with_neg ->
    int_range 2 universe >>= fun view_universe ->
    list_size (int_range 0 4)
      (pair (int_range 0 (universe - 1)) (int_range 0 (universe - 1)))
    >>= fun neg_tuples ->
    let atoms =
      List.filter_map
        (fun (scope, tuples) ->
          match scope with
          | [] -> None
          | _ ->
              let arity = List.length scope in
              let rel = Relation.create ~arity in
              List.iter
                (fun t ->
                  if List.length t = arity then Relation.add rel (Array.of_list t))
                tuples;
              Some (Generic_join.atom (Array.of_list scope) rel))
        raw_atoms
    in
    let atoms =
      if with_neg then
        let base = Relation.create ~arity:2 in
        List.iter (fun (a, b) -> Relation.add base [| a; b |]) neg_tuples;
        Generic_join.atom [| 0; 1 |]
          (Relation.complement_view ~universe_size:view_universe base)
        :: atoms
      else atoms
    in
    return atoms)

(* The solutions in the order a trie over [order] walks them: the
   lexicographic order of the assignment read along [order]. Built from
   [Test_join.brute]'s output, which shares no code with the join, so
   it stands in for the deleted trie backend as the reference below. *)
let trie_order_reference ~num_vars ~universe_size ?domains ~order atoms =
  let key a = Array.map (fun v -> a.(v)) order in
  Test_join.brute ~num_vars ~universe_size ?domains atoms
  |> List.sort (fun a b -> compare (key a) (key b))

let prop_counts_agree =
  QCheck2.Test.make ~count:300 ~name:"columnar count = trie count" gen_atoms
    (fun atoms ->
      let p = Generic_join.prepare ~num_vars:3 ~universe_size:3 atoms in
      Generic_join.count p
      = List.length
          (trie_order_reference ~num_vars:3 ~universe_size:3
             ~order:(Generic_join.order p) atoms))

let prop_solutions_identical_sequence =
  QCheck2.Test.make ~count:150
    ~name:"columnar and trie enumerate the same sequence" gen_atoms (fun atoms ->
      let order =
        Generic_join.order (Generic_join.prepare ~num_vars:3 ~universe_size:3 atoms)
      in
      (* not just equal as sets: identical order, which is what makes
         bounded-enumeration estimates bit-identical downstream *)
      Generic_join.solutions ~num_vars:3 ~universe_size:3 atoms
      = trie_order_reference ~num_vars:3 ~universe_size:3 ~order atoms)

(* The same sequence under a random [order] and [domains], with
   [diseqs] pruning exactly what a filter on the reference would drop. *)
let prop_matches_ordered_brute =
  let num_vars = 3 and universe_size = 3 in
  QCheck2.Test.make ~count:300 ~name:"join = ordered brute force"
    QCheck2.Gen.(
      let var = int_range 0 (num_vars - 1) in
      quad gen_atoms
        (shuffle_a (Array.init num_vars Fun.id))
        (array_size (return num_vars)
           (opt (array_size (int_range 0 3) (int_range 0 (universe_size - 1)))))
        (list_size (int_range 0 2)
           (pair var var >>= fun (a, b) ->
            return (a, if a = b then (b + 1) mod num_vars else b))))
    (fun (atoms, order, domains, diseqs) ->
      let diseqs = Array.of_list diseqs in
      let got = ref [] in
      Generic_join.run ~domains ~diseqs
        (Generic_join.prepare ~num_vars ~universe_size ~order atoms)
        ~f:(fun a ->
          got := a :: !got;
          true);
      let want =
        trie_order_reference ~num_vars ~universe_size ~domains ~order atoms
        |> List.filter (fun a -> Array.for_all (fun (u, v) -> a.(u) <> a.(v)) diseqs)
      in
      List.rev !got = want)

(* [~project:k] reports, for each distinct assignment of the order
   prefix ending at the deepest of the variables [0 .. k-1], the first
   solution the unprojected enumeration reaches with it — and nothing
   else, in the same order — and ticks the prepared join's budget no
   more than the unprojected run does. *)
let prop_project_keeps_first_per_prefix =
  let num_vars = 3 and universe_size = 3 in
  QCheck2.Test.make ~count:300 ~name:"project = first solution per prefix"
    QCheck2.Gen.(
      triple gen_atoms
        (shuffle_a (Array.init num_vars Fun.id))
        (int_range 0 num_vars))
    (fun (atoms, order, k) ->
      let budget = Ac_runtime.Budget.create () in
      let prepared =
        Generic_join.prepare ~num_vars ~universe_size ~budget ~order atoms
      in
      (* the solutions and the ticks they cost *)
      let collect ?project () =
        let got = ref [] and before = Ac_runtime.Budget.ticks budget in
        Generic_join.run ?project prepared ~f:(fun a ->
            got := a :: !got;
            true);
        (List.rev !got, Ac_runtime.Budget.ticks budget - before)
      in
      let deepest = ref (-1) in
      Array.iteri (fun i v -> if v < k then deepest := i) order;
      let prefix a = Array.init (!deepest + 1) (fun i -> a.(order.(i))) in
      let rec firsts seen = function
        | [] -> []
        | a :: rest ->
            if List.mem (prefix a) seen then firsts seen rest
            else a :: firsts (prefix a :: seen) rest
      in
      let all, full_ticks = collect () in
      let projected, cut_ticks = collect ~project:k () in
      projected = firsts [] all && cut_ticks <= full_ticks)

(* [count] against [run]'s reports. Half the cases are cut to the shape
   [count] takes in bulk: the last order variable held by one positive
   atom and no complement filter. The disequalities tie the last
   variable to both others (or to one twice), so several partners often
   hold the same value. Under a tick ceiling, checked every 1, 4 or 16
   ticks (so a bulk level's charge can cross a check or fall between
   two), both trip at the same tick with the same count so far. *)
let gen_count_case =
  let num_vars = 3 and universe_size = 3 in
  QCheck2.Gen.(
    let var = int_range 0 (num_vars - 1) in
    quad gen_atoms
      (shuffle_a (Array.init num_vars Fun.id))
      (opt (int_range 0 num_vars))
      (list_size (int_range 0 4)
         (pair var var >>= fun (a, b) ->
          return (a, if a = b then (b + 1) mod num_vars else b)))
    >>= fun (atoms, order, project, diseqs) ->
    bool >>= fun bulk_shape ->
    int_range 0 40 >>= fun ceiling ->
    let last = order.(num_vars - 1) in
    let holds_last (a : Generic_join.atom) = Array.mem last a.Generic_join.scope in
    let atoms =
      if not bulk_shape then atoms
      else
        let first =
          List.find_opt
            (fun (a : Generic_join.atom) ->
              holds_last a && not (Relation.is_complement a.Generic_join.relation))
            atoms
        in
        List.filter
          (fun a ->
            (not (holds_last a))
            || match first with Some f -> a == f | None -> false)
          atoms
    in
    return (atoms, order, project, Array.of_list diseqs, ceiling, universe_size))

let prop_count_matches_run =
  QCheck2.Test.make ~count:500 ~name:"count = run reports, same ticks"
    QCheck2.Gen.(pair gen_count_case (oneofl [ 1; 4; 16 ]))
    (fun ((atoms, order, project, diseqs, ceiling, universe_size), check_every) ->
      let prepare budget =
        Generic_join.prepare ~num_vars:3 ~universe_size ~budget ~order atoms
      in
      let by_run budget =
        let n = ref 0 in
        let completed =
          match
            Generic_join.run ~diseqs ?project (prepare budget) ~f:(fun _ ->
                incr n;
                true)
          with
          | () -> true
          | exception Budget.Budget_exceeded _ -> false
        in
        (!n, completed, Budget.ticks budget)
      in
      let by_count budget =
        let tally = ref 0 in
        let completed =
          match Generic_join.count ~diseqs ?project ~tally (prepare budget) with
          | n -> n = !tally
          | exception Budget.Budget_exceeded _ -> false
        in
        (!tally, completed, Budget.ticks budget)
      in
      (* one shared budget: each pass ticks it by the same amount *)
      let shared = Budget.create () in
      let n_run, _, t_run = by_run shared in
      let n_count, _, t_both = by_count shared in
      let squeeze () = Budget.create ~max_ticks:ceiling ~check_every () in
      n_run = n_count
      && t_both = 2 * t_run
      && by_run (squeeze ()) = by_count (squeeze ()))

(* [Exact.partial_count] (the bulk count when the free variables lead
   the order) against a per-solution count of the same cut enumeration,
   deduplicated by projection, under the same tick ceiling. *)
let prop_partial_count_per_leaf =
  QCheck2.Test.make ~count:300 ~name:"partial_count = per-leaf count"
    QCheck2.Gen.(
      pair (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true) (int_range 0 60))
    (fun ((q, db), ceiling) ->
      let squeeze () = Budget.create ~max_ticks:ceiling ~check_every:1 () in
      let per_leaf =
        let budget = squeeze () in
        let solver =
          Hom.prepare ~strategy:Hom.Backtracking ~budget (Assoc.hom_instance q db)
        in
        let l = Ecq.num_free q in
        let seen = Hashtbl.create 16 in
        let completed =
          match
            Hom.iter_solutions solver ~reuse:true
              ~diseqs:(Array.of_list (Ecq.delta q))
              ~project:l
              ~f:(fun sol ->
                Hashtbl.replace seen (Array.sub sol 0 l) ();
                true)
          with
          | () -> true
          | exception Budget.Budget_exceeded _ -> false
        in
        ((Hashtbl.length seen, completed), Budget.ticks budget)
      in
      let budget = squeeze () in
      let partial = Exact.partial_count ~budget q db in
      per_leaf = (partial, Budget.ticks budget))

(* The full join takes no base domains: with [restrict_domains]' output
   intersected into the caller's domains, [iter_solutions], [solve] and
   [decide] see the same sequence, solution and answer. *)
let prop_no_base_domains =
  QCheck2.Test.make ~count:300 ~name:"full join: base domains never prune"
    QCheck2.Gen.(
      Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true >>= fun (q, db) ->
      let u = Structure.universe_size db in
      array_size
        (return (Ecq.num_vars q))
        (opt (array_size (int_range 0 u) (int_range 0 (u - 1))))
      >>= fun domains ->
      bool >>= fun with_domains ->
      return (q, db, if with_domains then Some domains else None))
    (fun (q, db, domains) ->
      let inst = Assoc.hom_instance q db in
      let p = Hom.prepare ~strategy:Hom.Backtracking inst in
      let sequence ?domains () =
        let got = ref [] in
        Hom.iter_solutions p ?domains
          ~diseqs:(Array.of_list (Ecq.delta q))
          ~f:(fun a ->
            got := a :: !got;
            true);
        List.rev !got
      in
      let merged =
        Option.map
          (fun base ->
            Array.mapi
              (fun v b ->
                match Option.bind domains (fun ds -> ds.(v)) with
                | None -> Some b
                | Some d -> Some (Ac_kernels.Intset.inter b (Ac_kernels.Intset.canon d)))
              base)
          (Hom.restrict_domains inst)
      in
      let with_base f none = match merged with None -> none | Some m -> f m in
      sequence ?domains ()
      = with_base (fun m -> sequence ~domains:m ()) []
      && Hom.solve p ?domains () = with_base (fun m -> Hom.solve p ~domains:m ()) None
      && Hom.decide p ?domains () = with_base (fun m -> Hom.decide p ~domains:m ()) false)

(* One [Decomposition] prepared decided from 2 and 4 domains at once
   (its memo tables are pooled across callers) answers every pinned
   decision as a fresh backtracking solver does. *)
let test_concurrent_decomposition_decide () =
  (* a pinned 5-cycle maps into the triangle's component (it has an odd
     cycle), never into the path's or onto the isolated vertex 6 *)
  let symmetric edges =
    List.concat_map (fun (a, b) -> [ ("E", [| a; b |]); ("E", [| b; a |]) ]) edges
  in
  let target =
    Structure.of_facts ~universe_size:7
      (symmetric [ (0, 1); (1, 2); (2, 0); (3, 4); (4, 5) ])
  in
  let inst =
    {
      Hom.source =
        Structure.of_facts ~universe_size:5
          (List.init 5 (fun i -> ("E", [| i; (i + 1) mod 5 |])));
      target;
    }
  in
  let p = Hom.prepare ~strategy:Hom.Decomposition inst in
  (* trial [i] pins source vertex [i mod 5] to target vertex [i / 5] *)
  let domains i =
    Array.init 5 (fun v -> if v = i mod 5 then Some [| i / 5 |] else None)
  in
  let trials = 35 in
  let backtracking = Hom.prepare ~strategy:Hom.Backtracking inst in
  let want =
    Array.init trials (fun i -> Hom.decide backtracking ~domains:(domains i) ())
  in
  Alcotest.(check (array bool)) "reference" (Array.init trials (fun i -> i < 15)) want;
  List.iter
    (fun jobs ->
      let got =
        Ac_exec.Engine.run (Ac_exec.Engine.make ~jobs ~seed:1 ()) ~trials
          (fun ~rng:_ ~budget:_ i -> Hom.decide p ~domains:(domains i) ())
      in
      Alcotest.(check (array bool)) (Printf.sprintf "jobs=%d" jobs) want got)
    [ 2; 4 ]

let prop_estimates_bit_identical =
  QCheck2.Test.make ~count:15
    ~name:"estimates bit-identical across jobs"
    (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true)
    (fun (q, db) ->
      let estimate jobs =
        let exec = Ac_exec.Engine.make ~jobs ~seed:11 () in
        let r =
          Fptras.approx_count ~exec ~engine:Approxcount.Colour_oracle.Generic ~rounds:60 ~eps:0.5
            ~delta:0.3 q db
        in
        Int64.bits_of_float r.Fptras.estimate
      in
      estimate 1 = estimate 4)

let tests =
  [
    Alcotest.test_case "seal freezes relation" `Quick test_seal_freezes_relation;
    Alcotest.test_case "seal freezes structure" `Quick test_seal_freezes_structure;
    Alcotest.test_case "sealed layout" `Quick test_sealed_layout;
    Alcotest.test_case "complement view" `Quick test_complement_view;
    Alcotest.test_case "fingerprint stability" `Quick test_fingerprint_stability;
    Alcotest.test_case "gallop search" `Quick test_gallop_search;
    Alcotest.test_case "intersect arrays" `Quick test_intersect_arrays;
    Alcotest.test_case "intersect bounds" `Quick test_intersect_bounds;
    Alcotest.test_case "intersect stops on false" `Quick test_intersect_stops;
    QCheck_alcotest.to_alcotest prop_mem_at_matches_list;
    QCheck_alcotest.to_alcotest prop_projection_matches_sorted;
    QCheck_alcotest.to_alcotest prop_counts_agree;
    QCheck_alcotest.to_alcotest prop_solutions_identical_sequence;
    QCheck_alcotest.to_alcotest prop_matches_ordered_brute;
    QCheck_alcotest.to_alcotest prop_project_keeps_first_per_prefix;
    QCheck_alcotest.to_alcotest prop_estimates_bit_identical;
    QCheck_alcotest.to_alcotest prop_count_matches_run;
    QCheck_alcotest.to_alcotest prop_partial_count_per_leaf;
    QCheck_alcotest.to_alcotest prop_no_base_domains;
    Alcotest.test_case "decomposition decide under jobs=2/4" `Quick
      test_concurrent_decomposition_decide;
  ]
