open Ac_automata

(* A deterministic automaton accepting trees whose every label is 0, over
   alphabet {0, 1}: one state, Stop/One/Two transitions on symbol 0. *)
let all_zero_automaton () =
  let a = Tree_automaton.create ~num_states:1 ~num_symbols:2 ~initial:0 in
  Tree_automaton.add_transition a ~state:0 ~symbol:0 Tree_automaton.Stop;
  Tree_automaton.add_transition a ~state:0 ~symbol:0 (Tree_automaton.One 0);
  Tree_automaton.add_transition a ~state:0 ~symbol:0 (Tree_automaton.Two (0, 0));
  a

(* Nondeterministic: accepts trees containing at least one label 1.
   State 0 = "must still see a 1", state 1 = "anything goes". *)
let contains_one_automaton () =
  let a = Tree_automaton.create ~num_states:2 ~num_symbols:2 ~initial:0 in
  (* state 1: universal *)
  List.iter
    (fun sym ->
      Tree_automaton.add_transition a ~state:1 ~symbol:sym Tree_automaton.Stop;
      Tree_automaton.add_transition a ~state:1 ~symbol:sym (Tree_automaton.One 1);
      Tree_automaton.add_transition a ~state:1 ~symbol:sym (Tree_automaton.Two (1, 1)))
    [ 0; 1 ];
  (* state 0 on symbol 1: satisfied, continue universally *)
  Tree_automaton.add_transition a ~state:0 ~symbol:1 Tree_automaton.Stop;
  Tree_automaton.add_transition a ~state:0 ~symbol:1 (Tree_automaton.One 1);
  Tree_automaton.add_transition a ~state:0 ~symbol:1 (Tree_automaton.Two (1, 1));
  (* state 0 on symbol 0: delegate the obligation to some child *)
  Tree_automaton.add_transition a ~state:0 ~symbol:0 (Tree_automaton.One 0);
  Tree_automaton.add_transition a ~state:0 ~symbol:0 (Tree_automaton.Two (0, 1));
  Tree_automaton.add_transition a ~state:0 ~symbol:0 (Tree_automaton.Two (1, 0));
  a

let test_ltree_basics () =
  let t = Ltree.node 1 [ Ltree.leaf 0; Ltree.node 2 [ Ltree.leaf 0 ] ] in
  Alcotest.(check int) "size" 4 (Ltree.size t);
  Alcotest.(check bool) "equal" true
    (Ltree.equal t (Ltree.node 1 [ Ltree.leaf 0; Ltree.node 2 [ Ltree.leaf 0 ] ]));
  Alcotest.(check bool) "distinct ids" true
    (t.Ltree.id <> (Ltree.leaf 0).Ltree.id);
  Alcotest.(check int) "shape size" 4 (Ltree.shape_size (Ltree.shape_of t))

let test_shapes_with_size () =
  (* ordered trees with ≤2 children: T(1)=1, T(2)=1 (unary chain),
     T(3) = T(2) + T(1)·T(1) = 2, T(4) = T(3) + 2·T(1)T(2) = 4 *)
  Alcotest.(check int) "n=1" 1 (List.length (Ltree.shapes_with_size 1));
  Alcotest.(check int) "n=2" 1 (List.length (Ltree.shapes_with_size 2));
  Alcotest.(check int) "n=3" 2 (List.length (Ltree.shapes_with_size 3));
  Alcotest.(check int) "n=4" 4 (List.length (Ltree.shapes_with_size 4));
  List.iter
    (fun s -> Alcotest.(check int) "size" 4 (Ltree.shape_size s))
    (Ltree.shapes_with_size 4)

let test_labelings () =
  let shape = Ltree.Shape [ Ltree.Shape [] ] in
  Alcotest.(check int) "2^2 labelings" 4 (List.length (Ltree.labelings ~alphabet:2 shape))

let test_accepts () =
  let a = all_zero_automaton () in
  Alcotest.(check bool) "all zero" true (Tree_automaton.accepts a (Ltree.node 0 [ Ltree.leaf 0 ]));
  Alcotest.(check bool) "has a one" false (Tree_automaton.accepts a (Ltree.node 0 [ Ltree.leaf 1 ]));
  let b = contains_one_automaton () in
  Alcotest.(check bool) "contains one" true
    (Tree_automaton.accepts b (Ltree.node 0 [ Ltree.leaf 0; Ltree.leaf 1 ]));
  Alcotest.(check bool) "no one" false
    (Tree_automaton.accepts b (Ltree.node 0 [ Ltree.leaf 0; Ltree.leaf 0 ]))

let test_run_states () =
  let b = contains_one_automaton () in
  Alcotest.(check (list int)) "leaf 1 runs from both" [ 0; 1 ]
    (Tree_automaton.run_states b (Ltree.leaf 1));
  Alcotest.(check (list int)) "leaf 0 runs from 1 only" [ 1 ]
    (Tree_automaton.run_states b (Ltree.leaf 0))

let test_exact_vs_brute_fixed_shapes () =
  let automata = [ ("all-zero", all_zero_automaton ()); ("contains-one", contains_one_automaton ()) ] in
  let shapes = Ltree.shapes_with_size 4 @ Ltree.shapes_with_size 3 in
  List.iter
    (fun (name, a) ->
      List.iter
        (fun shape ->
          let dp = Exact_ta.count_fixed_shape a shape in
          let brute = Ac_test_support.Brute_ta.count_fixed_shape a shape in
          Alcotest.(check int) (name ^ " dp=brute") brute dp)
        shapes)
    automata

let test_count_slice () =
  (* all-zero automaton accepts exactly one labeling per shape *)
  let a = all_zero_automaton () in
  Alcotest.(check int) "slice 3 = #shapes" 2 (Exact_ta.count_slice a 3);
  (* contains-one: over shapes of size 2 (one shape, 4 labelings), those
     containing a 1: 3 *)
  let b = contains_one_automaton () in
  Alcotest.(check int) "slice 2" 3 (Exact_ta.count_slice b 2)

(* Random nondeterministic automata: DP count = brute count. *)
let gen_automaton =
  QCheck2.Gen.(
    let states = 3 and symbols = 2 in
    list_size (int_range 1 12)
      (triple (int_range 0 (states - 1)) (int_range 0 (symbols - 1))
         (int_range 0 4))
    >>= fun raw ->
    let a = Tree_automaton.create ~num_states:states ~num_symbols:symbols ~initial:0 in
    List.iter
      (fun (s, sym, kind) ->
        let rhs =
          match kind with
          | 0 -> Tree_automaton.Stop
          | 1 -> Tree_automaton.One ((s + 1) mod states)
          | 2 -> Tree_automaton.One ((s + 2) mod states)
          | 3 -> Tree_automaton.Two (s, (s + 1) mod states)
          | _ -> Tree_automaton.Two ((s + 1) mod states, s)
        in
        Tree_automaton.add_transition a ~state:s ~symbol:sym rhs)
      raw;
    return a)

let prop_dp_matches_brute =
  QCheck2.Test.make ~count:100 ~name:"stateset DP = brute enumeration"
    QCheck2.Gen.(pair gen_automaton (int_range 1 4))
    (fun (a, n) ->
      List.for_all
        (fun shape ->
          Exact_ta.count_fixed_shape a shape = Ac_test_support.Brute_ta.count_fixed_shape a shape)
        (Ltree.shapes_with_size n))

let prop_acjr_close_on_random =
  QCheck2.Test.make ~count:40 ~name:"ACJR estimate close to exact"
    QCheck2.Gen.(pair gen_automaton (int_range 2 4))
    (fun (a, n) ->
      List.for_all
        (fun shape ->
          let exact = float_of_int (Exact_ta.count_fixed_shape a shape) in
          let config = Acjr.default_config ~seed:11 () in
          let est = Acjr.estimate_fixed_shape ~config a shape in
          if exact = 0.0 then est = 0.0
          else Float.abs (est -. exact) /. exact < 0.5)
        (Ltree.shapes_with_size n))

let test_acjr_sample_accepted () =
  let a = contains_one_automaton () in
  let shape = Ltree.Shape [ Ltree.Shape []; Ltree.Shape [] ] in
  let config = Acjr.default_config ~seed:3 () in
  match Acjr.sample_fixed_shape ~config a shape with
  | None -> Alcotest.fail "expected a sample"
  | Some t -> Alcotest.(check bool) "sampled tree accepted" true (Tree_automaton.accepts a t)

let test_acjr_zero () =
  (* automaton with no transitions on the root symbol: estimate 0 *)
  let a = Tree_automaton.create ~num_states:1 ~num_symbols:1 ~initial:0 in
  let shape = Ltree.Shape [] in
  let config = Acjr.default_config ~seed:5 () in
  Alcotest.(check (float 1e-9)) "zero" 0.0 (Acjr.estimate_fixed_shape ~config a shape)

let tests =
  [
    Alcotest.test_case "ltree basics" `Quick test_ltree_basics;
    Alcotest.test_case "shapes with size" `Quick test_shapes_with_size;
    Alcotest.test_case "labelings" `Quick test_labelings;
    Alcotest.test_case "accepts" `Quick test_accepts;
    Alcotest.test_case "run states" `Quick test_run_states;
    Alcotest.test_case "exact vs brute fixed shapes" `Quick test_exact_vs_brute_fixed_shapes;
    Alcotest.test_case "count slice" `Quick test_count_slice;
    Alcotest.test_case "acjr sample accepted" `Quick test_acjr_sample_accepted;
    Alcotest.test_case "acjr zero" `Quick test_acjr_zero;
    QCheck_alcotest.to_alcotest prop_dp_matches_brute;
    QCheck_alcotest.to_alcotest prop_acjr_close_on_random;
  ]

(* the N-slice estimator against exact slice counting *)
let prop_slice_estimate_close =
  QCheck2.Test.make ~count:30 ~name:"ACJR N-slice estimate close to exact"
    QCheck2.Gen.(pair gen_automaton (int_range 1 4))
    (fun (a, n) ->
      let exact = float_of_int (Exact_ta.count_slice a n) in
      let config = Acjr.default_config ~seed:17 () in
      let est = Acjr.estimate_slice ~config a n in
      if exact = 0.0 then est = 0.0
      else Float.abs (est -. exact) /. exact < 0.5)

let test_slice_known () =
  let a = all_zero_automaton () in
  let config = Acjr.default_config ~seed:19 () in
  (* one accepted labeling per shape: slice n = #shapes(n) = 1, 1, 2, 4 *)
  Alcotest.(check (float 1e-6)) "n=1" 1.0 (Acjr.estimate_slice ~config a 1);
  Alcotest.(check (float 1e-6)) "n=2" 1.0 (Acjr.estimate_slice ~config a 2);
  Alcotest.(check (float 0.6)) "n=3" 2.0 (Acjr.estimate_slice ~config a 3);
  Alcotest.(check (float 1.2)) "n=4" 4.0 (Acjr.estimate_slice ~config a 4)

let test_slice_sampler () =
  let a = contains_one_automaton () in
  let config = Acjr.default_config ~seed:23 () in
  let est, draw = Acjr.slice_estimator ~config a 3 in
  Alcotest.(check bool) "positive" true (est > 0.0);
  for _ = 1 to 10 do
    match draw () with
    | None -> Alcotest.fail "expected a sample"
    | Some t ->
        Alcotest.(check int) "size 3" 3 (Ltree.size t);
        Alcotest.(check bool) "accepted" true (Tree_automaton.accepts a t)
  done

let test_slice_zero () =
  let a = Tree_automaton.create ~num_states:1 ~num_symbols:1 ~initial:0 in
  let config = Acjr.default_config ~seed:29 () in
  Alcotest.(check (float 1e-9)) "no transitions" 0.0 (Acjr.estimate_slice ~config a 2)

let tests =
  tests
  @ [
      Alcotest.test_case "slice known values" `Quick test_slice_known;
      Alcotest.test_case "slice sampler" `Quick test_slice_sampler;
      Alcotest.test_case "slice zero" `Quick test_slice_zero;
      QCheck_alcotest.to_alcotest prop_slice_estimate_close;
    ]
