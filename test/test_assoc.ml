open Ac_query
open Ac_relational
module Assoc = Approxcount.Assoc
module Exact = Approxcount.Exact

let friends () = Ac_workload.Query_families.friends ()

let friends_db () =
  Structure.of_facts ~universe_size:4
    [
      ("F", [| 0; 1 |]);
      ("F", [| 0; 2 |]);
      ("F", [| 0; 3 |]);
      ("F", [| 1; 2 |]);
    ]

let test_source () =
  let q = friends () in
  let a = Assoc.source q in
  Alcotest.(check int) "universe = vars" 3 (Structure.universe_size a);
  Alcotest.(check (list string)) "symbols" [ "F" ] (Structure.symbols a);
  Alcotest.(check bool) "fact (0,1)" true (Structure.holds a "F" [| 0; 1 |]);
  Alcotest.(check bool) "fact (0,2)" true (Structure.holds a "F" [| 0; 2 |]);
  (* Observation 19: ‖A(φ)‖ ≤ 3‖φ‖ *)
  Alcotest.(check bool) "Observation 19" true (Structure.size a <= 3 * Ecq.size q)

let test_source_negation () =
  let q =
    Ecq.make ~num_free:1 ~num_vars:2
      [ Ecq.Atom ("E", [| 0; 1 |]); Ecq.Neg_atom ("E", [| 1; 0 |]) ]
  in
  let a = Assoc.source q in
  Alcotest.(check (list string)) "symbols incl negated" [ "E"; "~E" ]
    (Structure.symbols a);
  Alcotest.(check bool) "negated fact" true (Structure.holds a "~E" [| 1; 0 |])

let test_target () =
  let q =
    Ecq.make ~num_free:1 ~num_vars:2
      [ Ecq.Atom ("E", [| 0; 1 |]); Ecq.Neg_atom ("E", [| 1; 0 |]) ]
  in
  let db = Structure.of_facts ~universe_size:3 [ ("E", [| 0; 1 |]); ("E", [| 1; 2 |]) ] in
  let b = Assoc.target q db in
  Alcotest.(check bool) "positive copied" true (Structure.holds b "E" [| 0; 1 |]);
  Alcotest.(check bool) "complement holds" true (Structure.holds b "~E" [| 1; 0 |]);
  Alcotest.(check bool) "complement excludes facts" false
    (Structure.holds b "~E" [| 0; 1 |]);
  Alcotest.(check int) "complement size" 7
    (Relation.cardinality (Structure.relation b "~E"));
  (* Observation 21: ‖B‖ ≤ 2‖φ‖(‖D‖ + ν|U|^a) *)
  let nu = Ecq.num_negated q and a_max = 2 in
  let bound =
    2 * Ecq.size q
    * (Structure.size db + (nu * int_of_float (float_of_int (Structure.universe_size db) ** float_of_int a_max)))
  in
  Alcotest.(check bool) "Observation 21" true (Structure.size b <= bound)

(* Equation (2) without disequalities: solutions = homomorphisms. *)
let prop_hom_equals_solutions =
  QCheck2.Test.make ~count:150 ~name:"Hom(A,B) = solutions without diseqs"
    (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:false)
    (fun (q, db) ->
      let inst = Assoc.hom_instance q db in
      let hom_count = Ac_hom.Hom.count_brute_force inst in
      (* count solutions directly *)
      let n = Ecq.num_vars q and u = Structure.universe_size db in
      let solutions = ref 0 in
      let assignment = Array.make n 0 in
      let rec go i =
        if i = n then begin
          if Ecq.satisfied_by q db assignment then incr solutions
        end
        else
          for v = 0 to u - 1 do
            assignment.(i) <- v;
            go (i + 1)
          done
      in
      go 0;
      hom_count = !solutions)

(* Lemma 30 on concrete instances: the hat-structure Hom instance agrees
   with direct answer-in-box checking, when quantifying over colourings.
   If an answer lies in the box, the colouring the lemma's proof builds
   from a solution σ extending it — f_η(σ(x_i)) red, f_η(σ(x_j)) blue
   for each η = {x_i, x_j} — must admit a hom (deterministic; a random
   colouring would miss it with probability up to 1 - 2^-|Δ| per try).
   If none does, no colouring may ever admit one (64 random trials). *)
let prop_lemma30 =
  QCheck2.Test.make ~count:30 ~name:"Lemma 30: hat structures vs direct check"
    QCheck2.Gen.(
      pair (Gen.ecq_with_db ~allow_neg:false ~allow_diseq:true) (int_range 0 1000))
    (fun ((q, db), seed) ->
      let l = Ecq.num_free q in
      if l = 0 || Structure.universe_size db = 0 then true
      else begin
        let rng = Random.State.make [| seed |] in
        let u = Structure.universe_size db in
        (* random aligned box *)
        let parts =
          Array.init l (fun _ ->
              let kept =
                List.filter (fun _ -> Random.State.bool rng) (List.init u Fun.id)
              in
              Array.of_list kept)
        in
        if Array.exists (fun p -> Array.length p = 0) parts then true
        else begin
          let hat_a = Assoc.hat_source q in
          let hom_for_colouring colours =
            let hat_b = Assoc.hat_target q db ~parts colours in
            Ac_hom.Hom.decide
              (Ac_hom.Hom.prepare ~strategy:Ac_hom.Hom.Backtracking
                 { Ac_hom.Hom.source = hat_a; target = hat_b })
              ()
          in
          let in_box i v = Array.exists (( = ) v) parts.(i) in
          (* ground truth: any answer with free values inside the box? *)
          let expected =
            Exact.answers q db
            |> List.exists (fun tau -> Array.for_all Fun.id (Array.mapi in_box tau))
          in
          (* a solution whose free values lie in the box, by brute force *)
          let witness =
            let n = Ecq.num_vars q in
            let sigma = Array.make n 0 in
            let rec go i =
              if i = n then
                if Ecq.satisfied_by q db sigma then Some (Array.copy sigma) else None
              else
                let rec try_value v =
                  if v = u then None
                  else if i < l && not (in_box i v) then try_value (v + 1)
                  else begin
                    sigma.(i) <- v;
                    match go (i + 1) with Some _ as w -> w | None -> try_value (v + 1)
                  end
                in
                try_value 0
            in
            go 0
          in
          match witness with
          | Some sigma ->
              let proof_colouring =
                List.map
                  (fun (i, j) ->
                    let f = Array.make u true in
                    f.(sigma.(j)) <- false;
                    ((i, j), f))
                  (Ecq.delta q)
              in
              expected && hom_for_colouring proof_colouring
          | None ->
              (not expected)
              && not
                   (List.exists hom_for_colouring
                      (List.init 64 (fun _ ->
                           Assoc.random_colouring ~rng q ~universe_size:u)))
        end
      end)

let test_random_colouring_shape () =
  let q = friends () in
  let rng = Random.State.make [| 5 |] in
  let colours = Assoc.random_colouring ~rng q ~universe_size:6 in
  Alcotest.(check int) "one per diseq" 1 (List.length colours);
  let (i, j), f = List.hd colours in
  Alcotest.(check (pair int int)) "pair sorted" (1, 2) (i, j);
  Alcotest.(check int) "function over U" 6 (Array.length f)

let test_negated_symbol () =
  Alcotest.(check string) "prefix" "~E" (Assoc.negated_symbol "E")

let test_friends_pipeline () =
  (* directed F facts: only person 0 has two distinct F-successors *)
  let q = friends () and db = friends_db () in
  Alcotest.(check int) "one answer" 1 (Exact.by_join_projection q db)

let tests =
  [
    Alcotest.test_case "A(phi)" `Quick test_source;
    Alcotest.test_case "A(phi) negation" `Quick test_source_negation;
    Alcotest.test_case "B(phi,D)" `Quick test_target;
    Alcotest.test_case "random colouring shape" `Quick test_random_colouring_shape;
    Alcotest.test_case "negated symbol" `Quick test_negated_symbol;
    Alcotest.test_case "friends concrete" `Quick test_friends_pipeline;
    QCheck_alcotest.to_alcotest prop_hom_equals_solutions;
    QCheck_alcotest.to_alcotest prop_lemma30;
  ]
