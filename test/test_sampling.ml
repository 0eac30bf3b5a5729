module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Sampling = Approxcount.Sampling
module Exact = Approxcount.Exact

let prop_sample_is_answer =
  QCheck2.Test.make ~count:30 ~name:"JVV sample is a genuine answer"
    QCheck2.Gen.(pair (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true) (int_range 0 10000))
    (fun ((q, db), seed) ->
      let rng = Random.State.make [| seed |] in
      match Sampling.sample ~rng ~rounds:48 ~eps:0.3 ~delta:0.2 q db with
      | None -> true (* may fail to sample; validity is what we check *)
      | Some tau -> Exact.is_answer q db tau)

let prop_sample_none_iff_empty =
  QCheck2.Test.make ~count:30 ~name:"JVV sample exists when answers exist"
    QCheck2.Gen.(pair (Gen.ecq_with_db ~allow_neg:false ~allow_diseq:false) (int_range 0 10000))
    (fun ((q, db), seed) ->
      let rng = Random.State.make [| seed |] in
      let has_answers = Exact.by_join_projection q db > 0 in
      match Sampling.sample ~rng ~rounds:48 ~eps:0.3 ~delta:0.2 q db with
      | None -> not has_answers
      | Some _ -> has_answers)

let test_sample_exact () =
  let q = Ac_workload.Query_families.friends () in
  let db =
    Structure.of_facts ~universe_size:4
      [ ("F", [| 0; 1 |]); ("F", [| 0; 2 |]); ("F", [| 3; 1 |]); ("F", [| 3; 2 |]) ]
  in
  let rng = Random.State.make [| 1 |] in
  (match Sampling.sample_exact ~rng q db with
  | None -> Alcotest.fail "expected sample"
  | Some tau -> Alcotest.(check bool) "valid" true (Exact.is_answer q db tau));
  let empty_db = Structure.of_facts ~universe_size:2 [ ("F", [| 0; 0 |]) ] in
  Alcotest.(check bool) "no sample when empty" true
    (Sampling.sample_exact ~rng q empty_db = None)

let test_sample_roughly_uniform () =
  (* two answers (0 and 3); over many samples both must appear *)
  let q = Ac_workload.Query_families.friends () in
  let db =
    Structure.of_facts ~universe_size:4
      [ ("F", [| 0; 1 |]); ("F", [| 0; 2 |]); ("F", [| 3; 1 |]); ("F", [| 3; 2 |]) ]
  in
  let rng = Random.State.make [| 2 |] in
  let counts = Array.make 4 0 in
  for _ = 1 to 40 do
    match Sampling.sample ~rng ~rounds:48 ~eps:0.3 ~delta:0.2 q db with
    | Some [| v |] -> counts.(v) <- counts.(v) + 1
    | _ -> ()
  done;
  Alcotest.(check bool) "answer 0 seen" true (counts.(0) > 0);
  Alcotest.(check bool) "answer 3 seen" true (counts.(3) > 0);
  Alcotest.(check int) "non-answers never" 0 (counts.(1) + counts.(2))

let union_fixture () =
  let q1 = Ecq.parse "ans(x) :- E(x, y)" in
  let q2 = Ecq.parse "ans(x) :- R(x, y)" in
  let db =
    Structure.of_facts ~universe_size:5
      [
        ("E", [| 0; 1 |]);
        ("E", [| 1; 2 |]);
        ("R", [| 1; 0 |]);
        ("R", [| 3; 0 |]);
      ]
  in
  (* Ans(q1) = {0,1}, Ans(q2) = {1,3} → union = {0,1,3} *)
  (q1, q2, db)

let test_union_exact () =
  let q1, q2, db = union_fixture () in
  Alcotest.(check int) "union" 3 (Sampling.union_count_exact [ q1; q2 ] db)

let test_union_karp_luby () =
  let q1, q2, db = union_fixture () in
  let rng = Random.State.make [| 3 |] in
  let est = Sampling.union_count_karp_luby ~rng ~rounds:4000 [ q1; q2 ] db in
  Alcotest.(check bool)
    (Printf.sprintf "karp-luby close (got %.2f)" est)
    true
    (Float.abs (est -. 3.0) < 0.3)

let prop_union_karp_luby_close =
  QCheck2.Test.make ~count:25 ~name:"Karp-Luby union close to exact"
    QCheck2.Gen.(
      triple
        (Gen.ecq ~allow_neg:false ~allow_diseq:true)
        (Gen.ecq ~allow_neg:false ~allow_diseq:true)
        (pair Gen.db (int_range 0 10000)))
    (fun (q1, q2, (db, seed)) ->
      if Ecq.num_free q1 <> Ecq.num_free q2 || Ecq.num_free q1 = 0 then true
      else begin
        let exact = float_of_int (Sampling.union_count_exact [ q1; q2 ] db) in
        let rng = Random.State.make [| seed |] in
        let est = Sampling.union_count_karp_luby ~rng ~rounds:3000 [ q1; q2 ] db in
        if exact = 0.0 then est = 0.0
        else Float.abs (est -. exact) /. exact < 0.35
      end)

let test_union_approx () =
  let q1, q2, db = union_fixture () in
  let est =
    Sampling.union_count_approx
      ~exec:(Ac_exec.Engine.sequential ~seed:4)
      ~kl_rounds:120 ~eps:0.25 ~delta:0.1
      [ q1; q2 ] db
  in
  Alcotest.(check bool)
    (Printf.sprintf "approx union close (got %.2f)" est)
    true
    (Float.abs (est -. 3.0) < 1.0)

let test_make_sampler_reuse () =
  let q = Ac_workload.Query_families.friends () in
  let db =
    Structure.of_facts ~universe_size:4
      [ ("F", [| 0; 1 |]); ("F", [| 0; 2 |]); ("F", [| 3; 1 |]); ("F", [| 3; 2 |]) ]
  in
  let sampler =
    Sampling.make_sampler
      ~rng:(Random.State.make [| 6 |])
      ~rounds:32 ~eps:0.3 ~delta:0.2 q db
  in
  for _ = 1 to 5 do
    match sampler () with
    | None -> Alcotest.fail "expected a sample"
    | Some tau -> Alcotest.(check bool) "valid" true (Exact.is_answer q db tau)
  done

let test_union_arity_mismatch () =
  let q1 = Ecq.parse "ans(x) :- E(x, y)" in
  let q2 = Ecq.parse "ans(x, y) :- E(x, y)" in
  let db = Structure.of_facts ~universe_size:2 [ ("E", [| 0; 1 |]) ] in
  match Sampling.union_count_exact [ q1; q2 ] db with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected arity mismatch error"

let tests =
  [
    Alcotest.test_case "sample exact" `Quick test_sample_exact;
    Alcotest.test_case "sample roughly uniform" `Slow test_sample_roughly_uniform;
    Alcotest.test_case "union exact" `Quick test_union_exact;
    Alcotest.test_case "union karp-luby" `Quick test_union_karp_luby;
    Alcotest.test_case "union approx (full pipeline)" `Quick test_union_approx;
    Alcotest.test_case "make_sampler reuse" `Quick test_make_sampler_reuse;
    Alcotest.test_case "union arity mismatch" `Quick test_union_arity_mismatch;
    QCheck_alcotest.to_alcotest prop_sample_is_answer;
    QCheck_alcotest.to_alcotest prop_sample_none_iff_empty;
    QCheck_alcotest.to_alcotest prop_union_karp_luby_close;
  ]

(* Statistical uniformity: 8 equally-likely answers, 160 draws; χ² with 7
   degrees of freedom has 99.9th percentile ≈ 24.3, so a sound sampler
   passes the 35.0 threshold with huge margin while a broken one (e.g.
   always the same answer) scores ≥ 1000. *)
let uniformity_fixture () =
  (* star centres 0..7, each with exactly two leaves 8, 9 *)
  let facts = ref [] in
  for c = 0 to 7 do
    facts := ("F", [| c; 8 |]) :: ("F", [| c; 9 |]) :: !facts
  done;
  ( Ac_workload.Query_families.friends (),
    Structure.of_facts ~universe_size:10 !facts )

let chi_square counts expected =
  Array.fold_left
    (fun acc c ->
      let d = float_of_int c -. expected in
      acc +. (d *. d /. expected))
    0.0 counts

let run_uniformity name draw =
  let counts = Array.make 8 0 in
  let misses = ref 0 in
  for _ = 1 to 160 do
    match draw () with
    | Some [| v |] when v < 8 -> counts.(v) <- counts.(v) + 1
    | _ -> incr misses
  done;
  Alcotest.(check bool) (name ^ ": few misses") true (!misses <= 16);
  let expected = float_of_int (160 - !misses) /. 8.0 in
  let chi2 = chi_square counts expected in
  Alcotest.(check bool)
    (Printf.sprintf "%s: chi2=%.1f below threshold" name chi2)
    true (chi2 < 35.0)

let test_jvv_uniformity () =
  let q, db = uniformity_fixture () in
  let sampler =
    Sampling.make_sampler
      ~rng:(Random.State.make [| 31 |])
      ~rounds:24 ~eps:0.3 ~delta:0.2 q db
  in
  run_uniformity "jvv" sampler

let test_dlm_sampler_uniformity () =
  let q, db = uniformity_fixture () in
  let rng = Random.State.make [| 33 |] in
  run_uniformity "dlm" (fun () ->
      Sampling.sample_dlm ~rng ~rounds:24 ~eps:0.3 ~delta:0.2 q db)

let test_exact_sampler_uniformity () =
  let q, db = uniformity_fixture () in
  let rng = Random.State.make [| 35 |] in
  run_uniformity "exact" (fun () -> Sampling.sample_exact ~rng q db)

let tests =
  tests
  @ [
      Alcotest.test_case "jvv uniformity" `Slow test_jvv_uniformity;
      Alcotest.test_case "dlm sampler uniformity" `Slow test_dlm_sampler_uniformity;
      Alcotest.test_case "exact sampler uniformity" `Quick test_exact_sampler_uniformity;
    ]
