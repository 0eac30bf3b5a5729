open Ac_relational
open Ac_hom

let structure_of facts ~universe_size = Structure.of_facts ~universe_size facts

let decide ?domains strategy inst = Hom.decide (Hom.prepare ~strategy inst) ?domains ()
let solve ?domains inst =
  Hom.solve (Hom.prepare ~strategy:Hom.Backtracking inst) ?domains ()

(* K3 → K3 has homomorphisms (identity); C5 → K2 does not (odd cycle not
   2-colourable); C4 → K2 does. *)
let cycle_structure n =
  let facts =
    List.concat_map
      (fun i -> [ ("E", [| i; (i + 1) mod n |]); ("E", [| (i + 1) mod n; i |]) ])
      (List.init n Fun.id)
  in
  structure_of facts ~universe_size:n

let clique_structure n =
  let facts = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then facts := ("E", [| i; j |]) :: !facts
    done
  done;
  structure_of !facts ~universe_size:n

let test_colouring () =
  let check name source target expected =
    let inst = { Hom.source; target } in
    Alcotest.(check bool) (name ^ " backtracking") expected (decide Hom.Backtracking inst);
    Alcotest.(check bool) (name ^ " decomposition") expected (decide Hom.Decomposition inst)
  in
  check "C5 -> K2" (cycle_structure 5) (clique_structure 2) false;
  check "C4 -> K2" (cycle_structure 4) (clique_structure 2) true;
  check "K3 -> K3" (clique_structure 3) (clique_structure 3) true;
  check "K4 -> K3" (clique_structure 4) (clique_structure 3) false

let test_find_valid () =
  let inst = { Hom.source = cycle_structure 4; target = clique_structure 2 } in
  match solve inst with
  | None -> Alcotest.fail "expected a homomorphism"
  | Some h -> Alcotest.(check bool) "valid" true (Hom.is_homomorphism inst h)

let test_domains_pin () =
  let inst = { Hom.source = cycle_structure 4; target = clique_structure 2 } in
  let domains = Array.make 4 None in
  domains.(0) <- Some [| 1 |];
  (match solve ~domains inst with
  | None -> Alcotest.fail "expected a homomorphism with pin"
  | Some h -> Alcotest.(check int) "pinned" 1 h.(0));
  (* contradictory pins on adjacent vertices of C4 into K2 *)
  let domains = Array.make 4 None in
  domains.(0) <- Some [| 0 |];
  domains.(1) <- Some [| 0 |];
  Alcotest.(check bool) "contradictory pin" false (decide ~domains Hom.Backtracking inst)

let test_restrict_domains () =
  (* target where vertex 2 is isolated: no source vertex can map there *)
  let target =
    structure_of [ ("E", [| 0; 1 |]); ("E", [| 1; 0 |]) ] ~universe_size:3
  in
  let source = structure_of [ ("E", [| 0; 1 |]) ] ~universe_size:2 in
  match Hom.restrict_domains { Hom.source; target } with
  | None -> Alcotest.fail "should be satisfiable"
  | Some domains ->
      Alcotest.(check bool) "0 cannot map to 2" false (Array.mem 2 domains.(0));
      Alcotest.(check bool) "1 cannot map to 2" false (Array.mem 2 domains.(1))

let test_empty_target_relation () =
  let source = structure_of [ ("E", [| 0; 1 |]) ] ~universe_size:2 in
  let target = structure_of [ ("F", [| 0; 0 |]) ] ~universe_size:1 in
  (match Hom.restrict_domains { Hom.source; target } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "missing symbol should raise")

let test_hypergraph_of_structure () =
  let s = structure_of [ ("R", [| 0; 1; 2 |]); ("P", [| 3 |]) ] ~universe_size:5 in
  let h = Hom.hypergraph s in
  Alcotest.(check int) "vertices" 5 (Ac_hypergraph.Hypergraph.num_vertices h);
  (* {0,1,2}, {3} and the singleton for isolated 4 *)
  Alcotest.(check int) "edges" 3 (Ac_hypergraph.Hypergraph.num_edges h)

let test_count_brute () =
  (* homs from a single edge (directed both ways) into K3: ordered pairs of
     distinct colours = 6 *)
  let source = structure_of [ ("E", [| 0; 1 |]); ("E", [| 1; 0 |]) ] ~universe_size:2 in
  Alcotest.(check int) "edge -> K3" 6
    (Hom.count_brute_force { Hom.source; target = clique_structure 3 })

(* Random instances: both solvers agree with the brute-force count. *)
let gen_instance =
  QCheck2.Gen.(
    let sn = 3 and tn = 3 in
    pair
      (list_size (int_range 1 4) (pair (int_range 0 (sn - 1)) (int_range 0 (sn - 1))))
      (list_size (int_range 0 6) (pair (int_range 0 (tn - 1)) (int_range 0 (tn - 1))))
    >>= fun (sedges, tedges) ->
    let source =
      structure_of (List.map (fun (a, b) -> ("E", [| a; b |])) sedges) ~universe_size:sn
    in
    let tedges = if tedges = [] then [ (0, 0) ] else tedges in
    let target =
      structure_of (List.map (fun (a, b) -> ("E", [| a; b |])) tedges) ~universe_size:tn
    in
    return { Hom.source; target })

let prop_solvers_agree =
  QCheck2.Test.make ~count:300 ~name:"solvers agree with brute force" gen_instance
    (fun inst ->
      let expected = Hom.count_brute_force inst > 0 in
      decide Hom.Backtracking inst = expected
      && decide Hom.Decomposition inst = expected)

let prop_prepared_consistent =
  QCheck2.Test.make ~count:100 ~name:"prepared solver reusable" gen_instance
    (fun inst ->
      let p = Hom.prepare ~strategy:Hom.Backtracking inst in
      let a = Hom.decide p () in
      let b = Hom.decide p () in
      let pd = Hom.prepare ~strategy:Hom.Decomposition inst in
      a = b && Hom.decide pd () = a)

let tests =
  [
    Alcotest.test_case "graph colouring homs" `Quick test_colouring;
    Alcotest.test_case "find returns valid hom" `Quick test_find_valid;
    Alcotest.test_case "domain pins" `Quick test_domains_pin;
    Alcotest.test_case "restrict domains" `Quick test_restrict_domains;
    Alcotest.test_case "missing symbol" `Quick test_empty_target_relation;
    Alcotest.test_case "hypergraph of structure" `Quick test_hypergraph_of_structure;
    Alcotest.test_case "count brute force" `Quick test_count_brute;
    QCheck_alcotest.to_alcotest prop_solvers_agree;
    QCheck_alcotest.to_alcotest prop_prepared_consistent;
  ]

(* Dalmau–Jonsson counting DP = brute-force count. *)
let prop_count_dp_matches_brute =
  QCheck2.Test.make ~count:200 ~name:"count_dp = brute force" gen_instance
    (fun inst -> Hom.count_dp inst = Hom.count_brute_force inst)

let test_count_dp_known () =
  (* homs from the directed path a→b into K3 (directed both ways) = walks
     of length 1 = 6 *)
  let source = structure_of [ ("E", [| 0; 1 |]) ] ~universe_size:2 in
  Alcotest.(check int) "path into K3" 6
    (Hom.count_dp { Hom.source; target = clique_structure 3 });
  (* proper 2-colourings of C4, ordered: 2 *)
  Alcotest.(check int) "C4 into K2" 2
    (Hom.count_dp { Hom.source = cycle_structure 4; target = clique_structure 2 });
  (* C5 into K2: none *)
  Alcotest.(check int) "C5 into K2" 0
    (Hom.count_dp { Hom.source = cycle_structure 5; target = clique_structure 2 })

let tests =
  tests
  @ [
      Alcotest.test_case "count_dp known values" `Quick test_count_dp_known;
      QCheck_alcotest.to_alcotest prop_count_dp_matches_brute;
    ]

(* A separator whose values overflow one int key: two K6 glued on 5
   vertices (separator of 5) into a universe of 8192, so |U|^5 > max_int.
   The target holds one K6 at large values plus stray edges; the homs
   send the glued K5 injectively into the K6 and both apexes onto the
   K6's sixth vertex: 6·5·4·3·2 = 720. *)
let test_large_keys () =
  let sym facts (a, b) = ("E", [| a; b |]) :: ("E", [| b; a |]) :: facts in
  let clique vs =
    List.concat_map (fun a -> List.filter_map (fun b -> if a < b then Some (a, b) else None) vs) vs
  in
  let source =
    structure_of
      (List.fold_left sym [] (clique [ 0; 1; 2; 3; 4; 5 ] @ clique [ 0; 1; 2; 3; 4; 6 ]))
      ~universe_size:7
  in
  let k6 = [ 1000; 2000; 3000; 4000; 5000; 8191 ] in
  let target =
    structure_of
      (List.fold_left sym [] (clique k6 @ [ (0, 1); (100, 8191); (4000, 4001); (7000, 7001) ]))
      ~universe_size:8192
  in
  let inst = { Hom.source; target } in
  let d = Ac_hypergraph.Tree_decomposition.decompose (Hom.hypergraph source) in
  let separator i p =
    Ac_hypergraph.Bitset.(cardinal (inter d.bags.(i) d.bags.(p)))
  in
  let widest = ref 0 in
  Array.iteri (fun i p -> if p >= 0 then widest := max !widest (separator i p)) d.parent;
  Alcotest.(check int) "separator of 5" 5 !widest;
  Alcotest.(check bool) "8192^5 overflows an int" true (8192. ** 5. > float_of_int max_int);
  let pin pins =
    let domains = Array.make 7 None in
    List.iter (fun (v, d) -> domains.(v) <- Some d) pins;
    domains
  in
  List.iter
    (fun (name, domains, expected) ->
      Alcotest.(check bool) (name ^ " backtracking") expected
        (decide ?domains Hom.Backtracking inst);
      Alcotest.(check bool) (name ^ " decomposition") expected
        (decide ?domains Hom.Decomposition inst))
    [
      ("unpinned", None, true);
      ("apexes on one value", Some (pin [ (5, [| 8191 |]); (6, [| 8191 |]) ]), true);
      ("apexes apart", Some (pin [ (5, [| 1000 |]); (6, [| 2000 |]) ]), false);
      ("apex on a stray edge", Some (pin [ (5, [| 100; 4001 |]) ]), false);
      ("separator pinned", Some (pin [ (0, [| 1000 |]); (1, [| 2000 |]); (2, [| 3000 |]);
                                       (3, [| 4000 |]); (4, [| 5000 |]) ]), true);
    ];
  Alcotest.(check int) "count_dp = backtracking count" 720 (Hom.count_dp inst);
  Alcotest.(check int) "backtracking count" 720
    (Hom.count_solutions (Hom.prepare ~strategy:Hom.Backtracking inst))

let tests = tests @ [ Alcotest.test_case "separator values overflow an int" `Quick test_large_keys ]
