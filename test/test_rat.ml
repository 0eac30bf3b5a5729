open Ac_lp

let rat = Alcotest.testable Rat.pp Rat.equal

let test_basics () =
  Alcotest.check rat "reduce" (Rat.make 1 2) (Rat.make 2 4);
  Alcotest.check rat "negative den" (Rat.make (-1) 2) (Rat.make 1 (-2));
  Alcotest.check rat "add" (Rat.make 5 6) (Rat.add (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.check rat "sub" (Rat.make 1 6) (Rat.sub (Rat.make 1 2) (Rat.make 1 3));
  Alcotest.check rat "mul" (Rat.make 1 3) (Rat.mul (Rat.make 1 2) (Rat.make 2 3));
  Alcotest.check rat "div" (Rat.make 3 4) (Rat.div (Rat.make 1 2) (Rat.make 2 3));
  Alcotest.(check int) "sign" (-1) (Rat.sign (Rat.make (-3) 7));
  Alcotest.(check string) "to_string" "3/2" (Rat.to_string (Rat.make 3 2));
  Alcotest.(check string) "int to_string" "5" (Rat.to_string (Rat.of_int 5));
  Alcotest.(check (float 1e-12)) "to_float" 1.5 (Rat.to_float (Rat.make 3 2));
  (match Rat.make 1 0 with
  | exception Division_by_zero -> ()
  | _ -> Alcotest.fail "zero denominator");
  match Rat.div Rat.one Rat.zero with
  | exception Division_by_zero -> ()
  | _ -> Alcotest.fail "division by zero"

let gen_rat =
  QCheck2.Gen.(
    pair (int_range (-50) 50) (int_range 1 50) >>= fun (n, d) ->
    return (Rat.make n d))

let prop_field_laws =
  QCheck2.Test.make ~count:300 ~name:"rational field laws"
    QCheck2.Gen.(triple gen_rat gen_rat gen_rat)
    (fun (a, b, c) ->
      Rat.equal (Rat.add a b) (Rat.add b a)
      && Rat.equal (Rat.add (Rat.add a b) c) (Rat.add a (Rat.add b c))
      && Rat.equal (Rat.mul a (Rat.add b c)) (Rat.add (Rat.mul a b) (Rat.mul a c))
      && Rat.equal (Rat.sub a a) Rat.zero
      && (Rat.sign b = 0 || Rat.equal (Rat.mul (Rat.div a b) b) a))

let prop_compare_consistent_with_float =
  QCheck2.Test.make ~count:300 ~name:"compare matches float order"
    QCheck2.Gen.(pair gen_rat gen_rat)
    (fun (a, b) ->
      let c = Rat.compare a b in
      let f = Float.compare (Rat.to_float a) (Rat.to_float b) in
      (* float conversion is exact for these small rationals' order *)
      (c < 0) = (f < 0) && (c > 0) = (f > 0))

(* exact optima and points of known LPs *)
let test_exact_known_lps () =
  let q n d = Rat.make n d in
  (* max 3x + 5y st x ≤ 4, 2y ≤ 12, 3x + 2y ≤ 18 → exactly 36 *)
  (match
     Simplex_exact.maximize ~num_vars:2
       ~objective:[| Rat.of_int 3; Rat.of_int 5 |]
       [
         Simplex_exact.constr [| Rat.one; Rat.zero |] Simplex_exact.Le (Rat.of_int 4);
         Simplex_exact.constr [| Rat.zero; Rat.of_int 2 |] Simplex_exact.Le (Rat.of_int 12);
         Simplex_exact.constr [| Rat.of_int 3; Rat.of_int 2 |] Simplex_exact.Le (Rat.of_int 18);
       ]
   with
  | Simplex_exact.Optimal { value; point } ->
      Alcotest.check rat "value exactly 36" (Rat.of_int 36) value;
      Alcotest.check rat "x = 2" (Rat.of_int 2) point.(0);
      Alcotest.check rat "y = 6" (Rat.of_int 6) point.(1)
  | _ -> Alcotest.fail "expected optimum");
  (* triangle cover: exactly 3/2 with weights 1/2 *)
  match
    Simplex_exact.minimize ~num_vars:3
      ~objective:[| Rat.one; Rat.one; Rat.one |]
      [
        Simplex_exact.constr [| Rat.one; Rat.zero; Rat.one |] Simplex_exact.Ge Rat.one;
        Simplex_exact.constr [| Rat.one; Rat.one; Rat.zero |] Simplex_exact.Ge Rat.one;
        Simplex_exact.constr [| Rat.zero; Rat.one; Rat.one |] Simplex_exact.Ge Rat.one;
      ]
  with
  | Simplex_exact.Optimal { value; point } ->
      Alcotest.check rat "exactly 3/2" (q 3 2) value;
      Alcotest.(check bool) "cover certificate" true
        (Simplex_exact.check
           [
             Simplex_exact.constr [| Rat.one; Rat.zero; Rat.one |] Simplex_exact.Ge Rat.one;
             Simplex_exact.constr [| Rat.one; Rat.one; Rat.zero |] Simplex_exact.Ge Rat.one;
             Simplex_exact.constr [| Rat.zero; Rat.one; Rat.one |] Simplex_exact.Ge Rat.one;
           ]
           point)
  | _ -> Alcotest.fail "expected optimum"

let test_exact_infeasible_unbounded () =
  (match
     Simplex_exact.maximize ~num_vars:1 ~objective:[| Rat.one |]
       [
         Simplex_exact.constr [| Rat.one |] Simplex_exact.Le Rat.one;
         Simplex_exact.constr [| Rat.one |] Simplex_exact.Ge (Rat.of_int 2);
       ]
   with
  | Simplex_exact.Infeasible -> ()
  | _ -> Alcotest.fail "expected infeasible");
  match
    Simplex_exact.maximize ~num_vars:2 ~objective:[| Rat.one; Rat.zero |]
      [ Simplex_exact.constr [| Rat.zero; Rat.one |] Simplex_exact.Le Rat.one ]
  with
  | Simplex_exact.Unbounded -> ()
  | _ -> Alcotest.fail "expected unbounded"

let test_fcn_rational_triangle () =
  let h = Ac_hypergraph.Hypergraph.cycle 3 in
  match
    Ac_hypergraph.Widths.fcn_rational h
      (Ac_hypergraph.Bitset.full ~capacity:3)
  with
  | Some (value, weights) ->
      Alcotest.check rat "exactly 3/2" (Rat.make 3 2) value;
      Array.iter
        (fun w -> Alcotest.check rat "weight exactly 1/2" (Rat.make 1 2) w)
        weights
  | None -> Alcotest.fail "expected a cover"

let tests =
  [
    Alcotest.test_case "rational basics" `Quick test_basics;
    Alcotest.test_case "exact known LPs" `Quick test_exact_known_lps;
    Alcotest.test_case "exact infeasible/unbounded" `Quick test_exact_infeasible_unbounded;
    Alcotest.test_case "fcn_rational triangle" `Quick test_fcn_rational_triangle;
    QCheck_alcotest.to_alcotest prop_field_laws;
    QCheck_alcotest.to_alcotest prop_compare_consistent_with_float;
  ]
