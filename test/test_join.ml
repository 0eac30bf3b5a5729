open Ac_relational
open Ac_join

let relation_of_list arity tuples = Relation.of_list ~arity tuples

(* Brute-force reference: all assignments satisfying every atom. *)
let brute ~num_vars ~universe_size ?domains atoms =
  let assignment = Array.make num_vars 0 in
  let out = ref [] in
  let in_domain v x =
    match domains with
    | None -> true
    | Some ds -> ( match ds.(v) with None -> true | Some a -> Array.mem x a)
  in
  let satisfies () =
    List.for_all
      (fun (a : Generic_join.atom) ->
        Relation.mem a.Generic_join.relation
          (Array.map (fun v -> assignment.(v)) a.Generic_join.scope))
      atoms
  in
  let rec go i =
    if i = num_vars then begin
      if satisfies () then out := Array.copy assignment :: !out
    end
    else
      for x = 0 to universe_size - 1 do
        if in_domain i x then begin
          assignment.(i) <- x;
          go (i + 1)
        end
      done
  in
  if num_vars = 0 then (if satisfies () then out := [ [||] ])
  else if universe_size > 0 then go 0;
  !out

let sort_sols = List.sort compare

let test_triangle_join () =
  (* R(x,y), S(y,z), T(z,x) *)
  let r = relation_of_list 2 [ [| 0; 1 |]; [| 1; 2 |]; [| 0; 2 |] ] in
  let s = relation_of_list 2 [ [| 1; 2 |]; [| 2; 0 |] ] in
  let t = relation_of_list 2 [ [| 2; 0 |]; [| 0; 1 |] ] in
  let atoms =
    [
      Generic_join.atom [| 0; 1 |] r;
      Generic_join.atom [| 1; 2 |] s;
      Generic_join.atom [| 2; 0 |] t;
    ]
  in
  let got = sort_sols (Generic_join.solutions ~num_vars:3 ~universe_size:3 atoms) in
  let want = sort_sols (brute ~num_vars:3 ~universe_size:3 atoms) in
  Alcotest.(check (list (array int))) "triangle" want got

let test_repeated_vars () =
  (* R(x, x, y): only self-consistent tuples survive *)
  let r = relation_of_list 3 [ [| 0; 0; 1 |]; [| 0; 1; 1 |]; [| 2; 2; 2 |] ] in
  let atoms = [ Generic_join.atom [| 0; 0; 1 |] r ] in
  let got = sort_sols (Generic_join.solutions ~num_vars:2 ~universe_size:3 atoms) in
  Alcotest.(check (list (array int))) "repeated" [ [| 0; 1 |]; [| 2; 2 |] ] got

let test_free_variable () =
  (* variable 1 not in any atom: ranges over the universe *)
  let r = relation_of_list 1 [ [| 1 |] ] in
  let atoms = [ Generic_join.atom [| 0 |] r ] in
  let got = sort_sols (Generic_join.solutions ~num_vars:2 ~universe_size:3 atoms) in
  Alcotest.(check (list (array int))) "free var"
    [ [| 1; 0 |]; [| 1; 1 |]; [| 1; 2 |] ]
    got

let test_domains () =
  let r = relation_of_list 2 [ [| 0; 1 |]; [| 1; 2 |]; [| 2; 0 |] ] in
  let atoms = [ Generic_join.atom [| 0; 1 |] r ] in
  let domains = [| Some [| 0; 2 |]; None |] in
  let got = sort_sols (Generic_join.solutions ~num_vars:2 ~universe_size:3 ~domains atoms) in
  Alcotest.(check (list (array int))) "domains" [ [| 0; 1 |]; [| 2; 0 |] ] got

let test_empty_relation () =
  let r = Relation.create ~arity:2 in
  let atoms = [ Generic_join.atom [| 0; 1 |] r ] in
  Alcotest.(check int) "no solutions" 0
    (Generic_join.count (Generic_join.prepare ~num_vars:2 ~universe_size:3 atoms))

let test_early_stop () =
  let r = relation_of_list 1 [ [| 0 |]; [| 1 |]; [| 2 |] ] in
  let atoms = [ Generic_join.atom [| 0 |] r ] in
  let seen = ref 0 in
  Generic_join.iter ~num_vars:1 ~universe_size:3 atoms ~f:(fun _ ->
      incr seen;
      false);
  Alcotest.(check int) "stopped after first" 1 !seen

let test_prepared_reuse () =
  let r = relation_of_list 2 [ [| 0; 1 |]; [| 1; 2 |] ] in
  let p =
    Generic_join.prepare ~num_vars:2 ~universe_size:3
      [ Generic_join.atom [| 0; 1 |] r ]
  in
  let count domains =
    let n = ref 0 in
    Generic_join.run ?domains p ~f:(fun _ ->
        incr n;
        true);
    !n
  in
  Alcotest.(check int) "full" 2 (count None);
  Alcotest.(check int) "restricted" 1 (count (Some [| Some [| 0 |]; None |]));
  Alcotest.(check int) "full again" 2 (count None)

let test_custom_order () =
  let r = relation_of_list 2 [ [| 0; 1 |]; [| 1; 0 |] ] in
  let atoms = [ Generic_join.atom [| 0; 1 |] r ] in
  let a = sort_sols (Generic_join.solutions ~num_vars:2 ~universe_size:2 ~order:[| 1; 0 |] atoms) in
  let b = sort_sols (Generic_join.solutions ~num_vars:2 ~universe_size:2 ~order:[| 0; 1 |] atoms) in
  Alcotest.(check (list (array int))) "order invariant" a b

(* Random atoms: generic join = brute force. *)
let gen_instance =
  QCheck2.Gen.(
    let num_vars = 3 and universe = 3 in
    list_size (int_range 1 4)
      (pair
         (list_size (int_range 1 2) (int_range 0 (num_vars - 1)))
         (list_size (int_range 0 8)
            (list_size (int_range 1 2) (int_range 0 (universe - 1)))))
    >>= fun raw_atoms ->
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
    return atoms)

let prop_matches_brute =
  QCheck2.Test.make ~count:300 ~name:"generic join = brute force" gen_instance
    (fun atoms ->
      let got = sort_sols (Generic_join.solutions ~num_vars:3 ~universe_size:3 atoms) in
      let want = sort_sols (brute ~num_vars:3 ~universe_size:3 atoms) in
      got = want)

let prop_matches_brute_with_domains =
  QCheck2.Test.make ~count:200 ~name:"generic join with domains = brute force"
    QCheck2.Gen.(
      pair gen_instance
        (array_size (return 3)
           (opt (array_size (int_range 0 3) (int_range 0 2)))))
    (fun (atoms, domains) ->
      let got =
        sort_sols (Generic_join.solutions ~num_vars:3 ~universe_size:3 ~domains atoms)
      in
      let want = sort_sols (brute ~num_vars:3 ~universe_size:3 ~domains atoms) in
      got = want)

let tests =
  [
    Alcotest.test_case "triangle join" `Quick test_triangle_join;
    Alcotest.test_case "repeated variables" `Quick test_repeated_vars;
    Alcotest.test_case "free variable" `Quick test_free_variable;
    Alcotest.test_case "domains" `Quick test_domains;
    Alcotest.test_case "empty relation" `Quick test_empty_relation;
    Alcotest.test_case "early stop" `Quick test_early_stop;
    Alcotest.test_case "prepared reuse" `Quick test_prepared_reuse;
    Alcotest.test_case "custom order" `Quick test_custom_order;
    QCheck_alcotest.to_alcotest prop_matches_brute;
    QCheck_alcotest.to_alcotest prop_matches_brute_with_domains;
  ]
