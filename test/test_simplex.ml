(* The exact two-phase simplex: known optima, phase 1 (equality rows and
   negative right-hand sides), infeasible and unbounded programs, the
   feasibility check, and optimality against random feasible points. *)

open Ac_lp

let rat = Alcotest.testable Rat.pp Rat.equal

(* [row [|a; b|] rel c] is the constraint a·x0 + b·x1 REL c *)
let row coeffs relation bound =
  Simplex_exact.constr (Array.map Rat.of_int coeffs) relation (Rat.of_int bound)

let ints = Array.map Rat.of_int

let check_opt ~expected constraints outcome =
  match outcome with
  | Simplex_exact.Optimal { value; point } ->
      Alcotest.check rat "objective" expected value;
      Alcotest.(check bool) "point feasible" true (Simplex_exact.check constraints point)
  | Simplex_exact.Infeasible -> Alcotest.fail "unexpectedly infeasible"
  | Simplex_exact.Unbounded -> Alcotest.fail "unexpectedly unbounded"

let test_basic_max () =
  (* max x + y st x <= 2, y <= 3 *)
  let constraints = [ row [| 1; 0 |] Le 2; row [| 0; 1 |] Le 3 ] in
  check_opt ~expected:(Rat.of_int 5) constraints
    (Simplex_exact.maximize ~num_vars:2 ~objective:(ints [| 1; 1 |]) constraints)

let test_classic_lp () =
  (* max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 → 36 at (2, 6) *)
  let constraints =
    [ row [| 1; 0 |] Le 4; row [| 0; 2 |] Le 12; row [| 3; 2 |] Le 18 ]
  in
  check_opt ~expected:(Rat.of_int 36) constraints
    (Simplex_exact.maximize ~num_vars:2 ~objective:(ints [| 3; 5 |]) constraints)

let test_minimize_with_ge () =
  (* min x + y st x + y >= 2, 2x >= 1 → 2 *)
  let constraints = [ row [| 1; 1 |] Ge 2; row [| 2; 0 |] Ge 1 ] in
  check_opt ~expected:(Rat.of_int 2) constraints
    (Simplex_exact.minimize ~num_vars:2 ~objective:(ints [| 1; 1 |]) constraints)

let test_equality () =
  (* max x st x + y = 3, y >= 1 → x = 2 *)
  let constraints = [ row [| 1; 1 |] Eq 3; row [| 0; 1 |] Ge 1 ] in
  match Simplex_exact.maximize ~num_vars:2 ~objective:(ints [| 1; 0 |]) constraints with
  | Simplex_exact.Optimal { point; _ } as outcome ->
      check_opt ~expected:(Rat.of_int 2) constraints outcome;
      Alcotest.check rat "y = 1" Rat.one point.(1)
  | _ -> Alcotest.fail "expected optimum"

let test_infeasible () =
  match
    Simplex_exact.maximize ~num_vars:1 ~objective:(ints [| 1 |])
      [ row [| 1 |] Le 1; row [| 1 |] Ge 2 ]
  with
  | Simplex_exact.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible"

let test_unbounded () =
  match
    Simplex_exact.maximize ~num_vars:2 ~objective:(ints [| 1; 0 |])
      [ row [| 0; 1 |] Le 1 ]
  with
  | Simplex_exact.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_negative_rhs () =
  (* max -x st -x <= -2 (i.e. x >= 2): the origin is infeasible, so
     phase 1 must find the start → -2 *)
  let constraints = [ row [| -1 |] Le (-2) ] in
  check_opt ~expected:(Rat.of_int (-2)) constraints
    (Simplex_exact.maximize ~num_vars:1 ~objective:(ints [| -1 |]) constraints)

let test_fractional_cover_triangle () =
  (* fcn of the triangle: min γ1+γ2+γ3 st each vertex covered:
     edges ab, bc, ca → optimum exactly 3/2 *)
  let constraints =
    [ row [| 1; 0; 1 |] Ge 1; row [| 1; 1; 0 |] Ge 1; row [| 0; 1; 1 |] Ge 1 ]
  in
  check_opt ~expected:(Rat.make 3 2) constraints
    (Simplex_exact.minimize ~num_vars:3 ~objective:(ints [| 1; 1; 1 |]) constraints)

let test_check_function () =
  let constraints = [ row [| 1; 1 |] Le 2; row [| 2; 0 |] Ge 1 ] in
  let check name want point =
    Alcotest.(check bool) name want (Simplex_exact.check constraints point)
  in
  check "feasible point" true (ints [| 1; 1 |]);
  check "boundary point" true [| Rat.make 1 2; Rat.make 3 2 |];
  check "violates le" false (ints [| 2; 1 |]);
  check "violates ge" false (ints [| 0; 1 |]);
  check "negative var" false (ints [| 1; -1 |])

(* Property: on random integer LPs with box constraints the solver
   returns a feasible point whose objective no random feasible point
   beats — all exact, no tolerance. *)
let prop_dominates_random_points =
  QCheck2.Test.make ~count:60 ~name:"simplex dominates random feasible points"
    QCheck2.Gen.(
      let dim = int_range 1 4 in
      dim >>= fun n ->
      let coeff = int_range (-3) 3 in
      list_size (int_range 1 5) (pair (array_size (return n) coeff) (int_range 1 4))
      >>= fun rows ->
      array_size (return n) coeff >>= fun objective ->
      return (n, objective, rows))
    (fun (n, objective, rows) ->
      (* constraints a.x <= b with b > 0, plus x <= 2 boxes: always feasible
         (x = 0) and bounded *)
      let constraints =
        List.map (fun (a, b) -> row a Le b) rows
        @ List.init n (fun i -> row (Array.init n (fun j -> Bool.to_int (i = j))) Le 2)
      in
      let objective = ints objective in
      let value_at x =
        Array.fold_left Rat.add Rat.zero (Array.mapi (fun i c -> Rat.mul c x.(i)) objective)
      in
      match Simplex_exact.maximize ~num_vars:n ~objective constraints with
      | Simplex_exact.Optimal { value; point } ->
          Simplex_exact.check constraints point
          && Rat.equal value (value_at point)
          &&
          (* compare against random feasible points on a quarter grid *)
          let rand_state = Random.State.make [| Array.length point; n |] in
          let ok = ref true in
          for _ = 1 to 30 do
            let candidate =
              Array.init n (fun _ -> Rat.make (Random.State.int rand_state 9) 4)
            in
            if
              Simplex_exact.check constraints candidate
              && Rat.compare (value_at candidate) value > 0
            then ok := false
          done;
          !ok
      | Simplex_exact.Infeasible -> false (* x = 0 is always feasible *)
      | Simplex_exact.Unbounded -> false (* boxes bound the region *))

let tests =
  [
    Alcotest.test_case "basic max" `Quick test_basic_max;
    Alcotest.test_case "classic lp" `Quick test_classic_lp;
    Alcotest.test_case "minimize with ge" `Quick test_minimize_with_ge;
    Alcotest.test_case "equality" `Quick test_equality;
    Alcotest.test_case "infeasible" `Quick test_infeasible;
    Alcotest.test_case "unbounded" `Quick test_unbounded;
    Alcotest.test_case "negative rhs" `Quick test_negative_rhs;
    Alcotest.test_case "triangle fractional cover" `Quick test_fractional_cover_triangle;
    Alcotest.test_case "check function" `Quick test_check_function;
    QCheck_alcotest.to_alcotest prop_dominates_random_points;
  ]
