open Ac_relational

let test_tuple () =
  Alcotest.(check bool) "equal" true (Tuple.equal [| 1; 2 |] [| 1; 2 |]);
  Alcotest.(check bool) "not equal" false (Tuple.equal [| 1; 2 |] [| 2; 1 |]);
  Alcotest.(check bool) "length differs" false (Tuple.equal [| 1 |] [| 1; 1 |]);
  Alcotest.(check int) "compare equal" 0 (Tuple.compare [| 3 |] [| 3 |]);
  Alcotest.(check bool) "hash consistent" true
    (Tuple.hash [| 1; 2; 3 |] = Tuple.hash [| 1; 2; 3 |]);
  Alcotest.(check string) "to_string" "(1,2)" (Tuple.to_string [| 1; 2 |])

let test_relation_basics () =
  let r = Relation.create ~arity:2 in
  Relation.add r [| 0; 1 |];
  Relation.add r [| 0; 1 |];
  Relation.add r [| 1; 0 |];
  Alcotest.(check int) "cardinality dedupes" 2 (Relation.cardinality r);
  Alcotest.(check bool) "mem" true (Relation.mem r [| 0; 1 |]);
  Alcotest.(check bool) "not mem" false (Relation.mem r [| 1; 1 |]);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Relation.add: tuple length does not match arity")
    (fun () -> Relation.add r [| 1 |])

(* [U^k] in lexicographic order, by counting in base [u]: the reference
   the lazy sweeps are checked against. *)
let all_tuples ~universe_size:u ~arity:k =
  let total = int_of_float (float_of_int u ** float_of_int k) in
  List.init total (fun n ->
      let t = Array.make k 0 in
      let n = ref n in
      for j = k - 1 downto 0 do
        t.(j) <- !n mod u;
        n := !n / u
      done;
      t)

let test_complement () =
  let r = Relation.of_list ~arity:2 [ [| 0; 0 |]; [| 1; 1 |] ] in
  let c = Relation.complement_view ~universe_size:2 r in
  Alcotest.(check int) "complement size" 2 (Relation.cardinality c);
  Alcotest.(check bool) "complement mem" true (Relation.mem c [| 0; 1 |]);
  Alcotest.(check bool) "complement not mem" false (Relation.mem c [| 0; 0 |]);
  Alcotest.(check (list (array int))) "complement content, ascending"
    [ [| 0; 1 |]; [| 1; 0 |] ] (Relation.to_list c);
  (* complement of complement = original *)
  Alcotest.(check (list (array int))) "involution" (Relation.to_list r)
    (Relation.to_list (Relation.complement_view ~universe_size:2 c))

let test_universal () =
  let sweep ~universe_size ~arity =
    let seen = ref [] in
    Relation.iter_universal ~universe_size ~arity (fun t -> seen := t :: !seen);
    List.rev !seen
  in
  Alcotest.(check (list (array int))) "9 tuples, ascending"
    (all_tuples ~universe_size:3 ~arity:2) (sweep ~universe_size:3 ~arity:2);
  Alcotest.(check int) "4 tuples" 4
    (List.length (sweep ~universe_size:4 ~arity:1));
  Alcotest.(check int) "empty universe" 0
    (List.length (sweep ~universe_size:0 ~arity:2))

let test_structure () =
  let s = Structure.create ~universe_size:5 in
  Structure.add_fact s "E" [| 0; 1 |];
  Structure.add_fact s "E" [| 1; 2 |];
  Structure.add_fact s "P" [| 3 |];
  Alcotest.(check (list string)) "symbols" [ "E"; "P" ] (Structure.symbols s);
  Alcotest.(check int) "arity E" 2 (Structure.arity_of s "E");
  Alcotest.(check int) "max arity" 2 (Structure.max_arity s);
  Alcotest.(check bool) "holds" true (Structure.holds s "E" [| 0; 1 |]);
  Alcotest.(check bool) "not holds" false (Structure.holds s "E" [| 1; 0 |]);
  Alcotest.(check bool) "unknown symbol" false (Structure.holds s "Q" [| 0 |]);
  (* ‖A‖ = |sig| + |U| + Σ |R| · ar(R) = 2 + 5 + (2·2 + 1·1) = 12 *)
  Alcotest.(check int) "size" 12 (Structure.size s);
  Alcotest.check_raises "universe bound"
    (Invalid_argument "Structure.add_fact: element 7 outside universe of size 5")
    (fun () -> Structure.add_fact s "E" [| 7; 0 |])

let test_structure_equal_copy () =
  let s = Structure.of_facts ~universe_size:3 [ ("E", [| 0; 1 |]); ("E", [| 1; 2 |]) ] in
  let c = Structure.copy s in
  Alcotest.(check bool) "copy equal" true (Structure.equal s c);
  Structure.add_fact c "E" [| 2; 0 |];
  Alcotest.(check bool) "copy detached" false (Structure.equal s c)

let test_singletons () =
  let s = Structure.of_facts ~universe_size:3 [ ("E", [| 0; 1 |]) ] in
  let s' = Structure.with_singletons s in
  Alcotest.(check bool) "singleton holds" true
    (Structure.holds s' (Structure.singleton_symbol 2) [| 2 |]);
  Alcotest.(check bool) "singleton excludes" false
    (Structure.holds s' (Structure.singleton_symbol 2) [| 1 |]);
  Alcotest.(check int) "original untouched" 1 (List.length (Structure.symbols s))

let prop_complement_partition =
  QCheck2.Test.make ~count:100 ~name:"R and ~R partition U^ar"
    QCheck2.Gen.(
      pair (int_range 1 4)
        (list_size (int_range 0 10) (pair (int_range 0 3) (int_range 0 3))))
    (fun (u, pairs) ->
      let r = Relation.create ~arity:2 in
      List.iter
        (fun (a, b) -> if a < u && b < u then Relation.add r [| a; b |])
        pairs;
      let c = Relation.complement_view ~universe_size:u r in
      Relation.cardinality r + Relation.cardinality c = u * u
      && Relation.fold (fun t acc -> acc && not (Relation.mem c t)) r true
      && Relation.to_list c
         = List.filter
             (fun t -> not (Relation.mem r t))
             (all_tuples ~universe_size:u ~arity:2))

let test_fingerprint () =
  let fp = Structure.fingerprint in
  let a =
    Structure.of_facts ~universe_size:4
      [ ("E", [| 0; 1 |]); ("E", [| 1; 2 |]); ("P", [| 3 |]) ]
  in
  let b =
    (* same facts, registered in a different order *)
    Structure.of_facts ~universe_size:4
      [ ("P", [| 3 |]); ("E", [| 1; 2 |]); ("E", [| 0; 1 |]) ]
  in
  Alcotest.(check string) "insertion-order insensitive" (fp a) (fp b);
  Alcotest.(check int) "hex digest length" 32 (String.length (fp a));
  let c =
    Structure.of_facts ~universe_size:5
      [ ("E", [| 0; 1 |]); ("E", [| 1; 2 |]); ("P", [| 3 |]) ]
  in
  Alcotest.(check bool) "universe size matters" false (fp a = fp c);
  let d =
    Structure.of_facts ~universe_size:4
      [ ("E", [| 0; 1 |]); ("E", [| 1; 2 |]); ("P", [| 3 |]); ("P", [| 0 |]) ]
  in
  Alcotest.(check bool) "extra fact matters" false (fp a = fp d);
  Alcotest.(check string) "copy preserves it" (fp a) (fp (Structure.copy a))

let test_fingerprint_empty_relation () =
  (* a declared-but-empty relation is part of the signature, so it must
     be part of the identity too *)
  let with_decl = Structure_io.of_string "universe 2\nrelation E 2\n" in
  let without = Structure_io.of_string "universe 2\n" in
  Alcotest.(check bool) "declared empty relation matters" false
    (Structure.fingerprint with_decl = Structure.fingerprint without)

let prop_fingerprint_equal_structures =
  QCheck2.Test.make ~count:60 ~name:"equal structures fingerprint alike"
    Gen.db (fun db ->
      Structure.fingerprint db = Structure.fingerprint (Structure.copy db))

let tests =
  [
    Alcotest.test_case "tuple" `Quick test_tuple;
    Alcotest.test_case "relation basics" `Quick test_relation_basics;
    Alcotest.test_case "complement" `Quick test_complement;
    Alcotest.test_case "universal" `Quick test_universal;
    Alcotest.test_case "structure" `Quick test_structure;
    Alcotest.test_case "structure equal/copy" `Quick test_structure_equal_copy;
    Alcotest.test_case "singletons" `Quick test_singletons;
    Alcotest.test_case "fingerprint" `Quick test_fingerprint;
    Alcotest.test_case "fingerprint: empty relation" `Quick
      test_fingerprint_empty_relation;
    QCheck_alcotest.to_alcotest prop_complement_partition;
    QCheck_alcotest.to_alcotest prop_fingerprint_equal_structures;
  ]
