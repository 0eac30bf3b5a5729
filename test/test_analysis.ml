(* The static query-analysis engine: golden diagnostics per QL code
   (positive and negative instance each), span tracking through
   Ecq.parse_spans, classification/planner agreement, and qcheck
   properties tying the analysis to the counting engines. *)

module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Budget = Ac_runtime.Budget
module Analysis = Ac_analysis.Report
module Diagnostic = Ac_analysis.Diagnostic
module Classification = Ac_analysis.Classification
module Classify = Ac_analysis.Classify
module Planner = Approxcount.Planner
module Exact = Approxcount.Exact
module QF = Ac_workload.Query_families

let contains_sub ~sub s =
  let ls = String.length sub and l = String.length s in
  let rec go i = i + ls <= l && (String.sub s i ls = sub || go (i + 1)) in
  go 0

let codes report =
  List.map (fun d -> d.Diagnostic.code) report.Analysis.diagnostics

let has code report = List.mem code (codes report)

let check_has name code text =
  let report = Analysis.analyze_text text in
  if not (has code report) then
    Alcotest.failf "%s: expected %s on %S" name (Diagnostic.code_id code) text

let check_lacks name code text =
  let report = Analysis.analyze_text text in
  if has code report then
    Alcotest.failf "%s: unexpected %s on %S" name (Diagnostic.code_id code) text

(* ---------- golden positive/negative per code ---------- *)

let test_ql000_syntax () =
  let report = Analysis.analyze_text "ans(x) :- E(x y)" in
  (match report.Analysis.diagnostics with
  | [ d ] ->
      Alcotest.(check string) "code" "QL000" (Diagnostic.code_id d.Diagnostic.code);
      Alcotest.(check bool) "is error" true (Diagnostic.is_error d);
      (match d.Diagnostic.span with
      | Some { Diagnostic.start; stop } ->
          Alcotest.(check int) "offset of the bad token" 14 start;
          Alcotest.(check bool) "non-empty span" true (stop > start)
      | None -> Alcotest.fail "QL000 lost its span")
  | ds -> Alcotest.failf "expected exactly one diagnostic, got %d" (List.length ds));
  Alcotest.(check int) "exit 1" 1 (Analysis.exit_status report);
  check_lacks "ql000-neg" Diagnostic.Syntax_error "ans(x) :- E(x, y)"

let test_ql001_unused () =
  check_has "ql001-pos" Diagnostic.Unused_variable "ans(x) :- E(x, y), E(y, z)";
  (* z occurs twice: not pure projection *)
  check_lacks "ql001-neg" Diagnostic.Unused_variable
    "ans(x) :- E(x, y), E(y, z), E(z, x)";
  (* a single-occurrence variable in a NEGATED atom is not projection *)
  check_lacks "ql001-neg-negated" Diagnostic.Unused_variable
    "ans(x) :- E(x, y), E(y, x), !R(x, z), P(z)"

let test_ql002_disconnected () =
  check_has "ql002-pos" Diagnostic.Disconnected "ans(x, y) :- E(x, y), R(z, w)";
  check_lacks "ql002-neg" Diagnostic.Disconnected "ans(x, y) :- E(x, y), R(y, z)";
  (* a disequality alone connects components: no cartesian product *)
  check_lacks "ql002-diseq-connects" Diagnostic.Disconnected
    "ans(x, y) :- E(x, y), R(z, w), x != z"

let test_ql003_degenerate_diseq () =
  (* duplicate disequality, structural path *)
  check_has "ql003-dup" Diagnostic.Diseq_degenerate
    "ans(x) :- E(x, y), x != y, y != x";
  check_lacks "ql003-neg" Diagnostic.Diseq_degenerate "ans(x) :- E(x, y), x != y";
  (* contradictory x != x: parse-time detection with a span *)
  let report = Analysis.analyze_text "ans(x) :- E(x, y), x != x" in
  (match report.Analysis.diagnostics with
  | [ d ] ->
      Alcotest.(check string) "code" "QL003" (Diagnostic.code_id d.Diagnostic.code);
      Alcotest.(check bool) "severity error" true (Diagnostic.is_error d);
      (match d.Diagnostic.span with
      | Some { Diagnostic.start; stop } ->
          Alcotest.(check string) "span covers the diseq" "x != x"
            (String.sub "ans(x) :- E(x, y), x != x" start (stop - start))
      | None -> Alcotest.fail "contradictory diseq lost its span")
  | _ -> Alcotest.fail "expected exactly the QL003 diagnostic");
  (* the same contradiction reached through equality unification *)
  let report2 = Analysis.analyze_text "ans(x) :- E(x, y), x = y, x != y" in
  Alcotest.(check bool) "via equality" true (has Diagnostic.Diseq_degenerate report2);
  Alcotest.(check int) "exit 1" 1 (Analysis.exit_status report2)

let test_ql004_duplicate_atom () =
  check_has "ql004-pos" Diagnostic.Duplicate_atom "ans(x) :- E(x, y), E(x, y)";
  check_lacks "ql004-neg" Diagnostic.Duplicate_atom "ans(x) :- E(x, y), E(y, x)";
  (* same symbol, different polarity over different vars: no duplicate *)
  check_lacks "ql004-polarity" Diagnostic.Duplicate_atom
    "ans(x) :- E(x, y), !E(y, x)"

let test_ql005_negated_twin () =
  let report = Analysis.analyze_text "ans(x) :- E(x, y), !E(x, y)" in
  Alcotest.(check bool) "pos" true (has Diagnostic.Negated_twin report);
  Alcotest.(check int) "exit 1" 1 (Analysis.exit_status report);
  let c = Analysis.classification_exn report in
  (match c.Classification.always_empty with
  | Some w ->
      Alcotest.(check string) "witness relation" "E" w.Classification.relation;
      Alcotest.(check int) "positive atom index" 0 w.Classification.pos_index;
      Alcotest.(check int) "negated atom index" 1 w.Classification.neg_index
  | None -> Alcotest.fail "classification lost the emptiness witness");
  Alcotest.(check bool) "regime is exact-empty" true
    (c.Classification.regime = Ac_analysis.Rung.Exact);
  check_lacks "ql005-neg" Diagnostic.Negated_twin "ans(x) :- E(x, y), !E(y, x)"

let mini_db () =
  let s = Structure.create ~universe_size:3 in
  Structure.declare s "E" ~arity:2;
  Structure.declare s "Z" ~arity:2;
  Structure.add_fact s "E" [| 0; 1 |];
  Structure.add_fact s "E" [| 1; 2 |];
  s

let test_ql006_signature () =
  let db = mini_db () in
  let q = Ecq.parse "ans(x) :- E(x, y), Q(y, z)" in
  let report = Analysis.analyze ~db q in
  Alcotest.(check bool) "missing symbol" true (has Diagnostic.Signature_mismatch report);
  Alcotest.(check int) "exit 1" 1 (Analysis.exit_status report);
  let q_arity = Ecq.parse "ans(x) :- E(x, y, z)" in
  Alcotest.(check bool) "arity conflict" true
    (has Diagnostic.Signature_mismatch (Analysis.analyze ~db q_arity));
  Alcotest.(check bool) "compatible query clean" false
    (has Diagnostic.Signature_mismatch
       (Analysis.analyze ~db (Ecq.parse "ans(x) :- E(x, y)")));
  (* without a database the check cannot run *)
  Alcotest.(check bool) "no db, no QL006" false
    (has Diagnostic.Signature_mismatch (Analysis.analyze q))

let test_ql007_star_size () =
  check_has "ql007-pos" Diagnostic.Star_size
    "ans(a, b, c, d) :- E(y, a), E(y, b), E(y, c), E(y, d), a != b";
  check_lacks "ql007-neg" Diagnostic.Star_size
    "ans(x) :- F(x, y), F(x, z), y != z"

let test_ql008_width () =
  let report = Analysis.analyze (QF.clique_query ~num_free:2 6) in
  Alcotest.(check bool) "clique-6 blows up" true (has Diagnostic.Width_blowup report);
  Alcotest.(check bool) "clique-4 fine" false
    (has Diagnostic.Width_blowup (Analysis.analyze (QF.clique_query ~num_free:2 4)))

let test_ql009_unguarded () =
  check_has "ql009-pos" Diagnostic.Unguarded_variable "ans(x, y) :- E(x, z), y != z";
  check_lacks "ql009-neg" Diagnostic.Unguarded_variable "ans(x, y) :- E(x, y)"

let test_ql010_empty_relation () =
  let db = mini_db () in
  let q = Ecq.parse "ans(x) :- E(x, y), Z(y, z)" in
  Alcotest.(check bool) "declared-but-empty" true
    (has Diagnostic.Empty_relation (Analysis.analyze ~db q));
  Alcotest.(check bool) "nonempty relation clean" false
    (has Diagnostic.Empty_relation
       (Analysis.analyze ~db (Ecq.parse "ans(x) :- E(x, y)")));
  (* a db-level fact, not a query defect: severity stays below error *)
  Alcotest.(check int) "exit 0" 0 (Analysis.exit_status (Analysis.analyze ~db q))

let test_ql011_quantifier_free () =
  check_has "ql011-pos" Diagnostic.Quantifier_free "ans(x, y) :- E(x, y), R(y, x)";
  check_lacks "ql011-diseq" Diagnostic.Quantifier_free
    "ans(x, y) :- E(x, y), x != y";
  check_lacks "ql011-existential" Diagnostic.Quantifier_free
    "ans(x) :- E(x, y)"

(* QL012 needs measured stats predicting > 10^7 answers: two disjoint
   4000-tuple relations under a cartesian product bound 1.6·10^7. *)
let test_ql012_output_blowup () =
  let s = Structure.create ~universe_size:4000 in
  Structure.declare s "E" ~arity:2;
  Structure.declare s "R" ~arity:2;
  for i = 0 to 3999 do
    Structure.add_fact s "E" [| i; i |];
    Structure.add_fact s "R" [| i; i |]
  done;
  let q = Ecq.parse "ans(x, y, z, w) :- E(x, y), R(z, w)" in
  let report = Analysis.analyze ~db:s q in
  Alcotest.(check bool) "blow-up flagged" true
    (has Diagnostic.Output_blowup report);
  (* the witness is the instantiated bound, and severity stays warning *)
  let d =
    List.find
      (fun d -> d.Diagnostic.code = Diagnostic.Output_blowup)
      report.Analysis.diagnostics
  in
  Alcotest.(check bool) "message carries the bound" true
    (contains_sub ~sub:"1.6e+07" d.Diagnostic.message);
  Alcotest.(check int) "exit 0" 0 (Analysis.exit_status report);
  (* a single small join stays quiet *)
  Alcotest.(check bool) "small bound clean" false
    (has Diagnostic.Output_blowup
       (Analysis.analyze ~db:s (Ecq.parse "ans(x) :- E(x, y)")));
  (* db-less analysis has no cost, hence no QL012 even on wide queries *)
  Alcotest.(check bool) "no db, no QL012" false
    (has Diagnostic.Output_blowup (Analysis.analyze q))

(* ---------- spans through parse_spans ---------- *)

let test_spans_align () =
  let text = "ans(x) :- E(x, y), E(y, z), x != z" in
  let q, spans = Ecq.parse_spans text in
  Alcotest.(check int) "one span per atom" (List.length (Ecq.atoms q))
    (Array.length spans);
  let slice (start, stop) = String.sub text start (stop - start) in
  Alcotest.(check (list string))
    "spans recover the source atoms"
    [ "E(x, y)"; "E(y, z)"; "x != z" ]
    (List.map slice (Array.to_list spans));
  (* the QL001 diagnostic points at the atom that owns the variable *)
  let text2 = "ans(x) :- E(x, y), E(y, z)" in
  let report = Analysis.analyze_text text2 in
  match
    List.find_opt
      (fun d -> d.Diagnostic.code = Diagnostic.Unused_variable)
      report.Analysis.diagnostics
  with
  | Some { Diagnostic.span = Some { Diagnostic.start; stop }; _ } ->
      Alcotest.(check string) "diagnostic span" "E(y, z)"
        (String.sub text2 start (stop - start))
  | _ -> Alcotest.fail "QL001 with a span expected"

let test_parse_error_positions () =
  (match Ecq.parse_spans "ans(x) :- E(x y)" with
  | exception Ecq.Parse_error pe ->
      Alcotest.(check int) "offset" 14 pe.Ecq.offset;
      Alcotest.(check string) "token" "y" pe.Ecq.token
  | _ -> Alcotest.fail "expected Parse_error");
  (match Ecq.parse_spans "ans(x) :- E(x, y)," with
  | exception Ecq.Parse_error pe ->
      Alcotest.(check int) "eof offset" 18 pe.Ecq.offset;
      Alcotest.(check string) "eof token" "" pe.Ecq.token
  | _ -> Alcotest.fail "expected Parse_error at eof");
  (* parse keeps raising Failure, with the position in the message *)
  match Ecq.parse "ans(x) :- E(x y)" with
  | exception Failure msg ->
      Alcotest.(check bool) "offset in message" true
        (contains_sub ~sub:"offset 14" msg)
  | _ -> Alcotest.fail "expected Failure"

let test_json_smoke () =
  let report = Analysis.analyze_text "ans(x) :- E(x, y), E(y, z)" in
  let s = Ac_analysis.Json.to_string (Analysis.to_json report) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) needle true (contains_sub ~sub:needle s))
    [ "\"classification\""; "\"diagnostics\""; "\"QL001\""; "\"treewidth\"" ]

(* ---------- qcheck properties ---------- *)

(* A lint-clean query (no Error diagnostics) never makes the planner or
   the governed counter raise: every failure mode is a typed Error. *)
let prop_clean_never_raises =
  QCheck2.Test.make ~count:120 ~name:"lint-clean queries: plan + governed count total"
    (Gen.ecq_with_db ~allow_neg:true ~allow_diseq:true)
    (fun (q, db) ->
      let report = Analysis.analyze ~db q in
      if not (Analysis.has_errors report) then (
        let budget = Budget.create ~label:"prop" ~max_ticks:200_000 () in
        let exec = Ac_exec.Engine.make ~jobs:1 ~seed:11 () in
        match
          Planner.count_governed ~budget ~exec
            ~classification:(Analysis.classification_exn report)
            ~cost:(Option.get report.Analysis.cost) ~eps:0.9 ~delta:0.4 q db
        with
        | Ok _ | Error _ -> true
        | exception e ->
            QCheck2.Test.fail_reportf "count_governed raised %s"
              (Printexc.to_string e))
      else true)

(* Grafting a negated twin onto any query makes it statically empty; the
   analysis must say so and the exact engine must count 0. *)
let prop_always_empty_counts_zero =
  QCheck2.Test.make ~count:80 ~name:"negated twin: QL005 + exact count 0"
    (Gen.ecq_with_db ~allow_neg:false ~allow_diseq:true)
    (fun (q, db) ->
      match
        List.find_opt
          (function Ecq.Atom _ -> true | _ -> false)
          (Ecq.atoms q)
      with
      | None -> QCheck2.assume_fail ()
      | Some (Ecq.Atom (name, vs)) ->
          let twin =
            Ecq.make ~num_free:(Ecq.num_free q) ~num_vars:(Ecq.num_vars q)
              (Ecq.atoms q @ [ Ecq.Neg_atom (name, vs) ])
          in
          let report = Analysis.analyze ~db twin in
          if not (has Diagnostic.Negated_twin report) then
            QCheck2.Test.fail_reportf "QL005 missing on a twinned query";
          let c = Analysis.classification_exn report in
          if c.Classification.regime <> Ac_analysis.Rung.Exact then
            QCheck2.Test.fail_reportf "twinned query not classified exact-empty";
          Exact.by_join_projection twin db = 0
      | Some _ -> QCheck2.assume_fail ())

(* Classification depends on the query's structure only: renaming
   (rotating) the existential variables changes no invariant field. *)
let prop_classification_renaming_invariant =
  QCheck2.Test.make ~count:150 ~name:"classification invariant under ∃-renaming"
    (Gen.ecq ~allow_neg:true ~allow_diseq:true)
    (fun q ->
      let free = Ecq.num_free q and n = Ecq.num_vars q in
      let ne = n - free in
      if ne < 2 then QCheck2.assume_fail ()
      else begin
        let rename v = if v < free then v else free + ((v - free + 1) mod ne) in
        let atoms =
          List.map
            (function
              | Ecq.Atom (s, vs) -> Ecq.Atom (s, Array.map rename vs)
              | Ecq.Neg_atom (s, vs) -> Ecq.Neg_atom (s, Array.map rename vs)
              | Ecq.Diseq (i, j) -> Ecq.Diseq (rename i, rename j))
            (Ecq.atoms q)
        in
        let q' = Ecq.make ~num_free:free ~num_vars:n atoms in
        Classification.equal_invariants (Classify.classify q) (Classify.classify q')
      end)

(* ---------- Json.parse (grown for the acqd wire protocol) ---------- *)

module Json = Ac_analysis.Json

let json_testable =
  Alcotest.testable (fun ppf j -> Fmt.string ppf (Json.to_string j)) ( = )

let test_json_parse_values () =
  let ok text expect =
    match Json.parse text with
    | Ok j -> Alcotest.check json_testable text expect j
    | Error e -> Alcotest.failf "%S: %s" text (Json.error_message e)
  in
  ok "null" Json.Null;
  ok "  true " (Json.Bool true);
  ok "-17" (Json.Int (-17));
  ok "3.5e2" (Json.Float 350.0);
  ok "0.0" (Json.Float 0.0);
  ok "1e3" (Json.Float 1000.0);
  ok {|"a\nb\t\"\\"|} (Json.String "a\nb\t\"\\");
  (* é is é, the surrogate pair is 😀 — both must land as UTF-8 *)
  ok {|"é😀"|} (Json.String "\xc3\xa9\xf0\x9f\x98\x80");
  ok "[]" (Json.List []);
  ok "{}" (Json.Obj []);
  ok {|[1,[2,{"k":null}]]|}
    (Json.List [ Json.Int 1; Json.List [ Json.Int 2; Json.Obj [ ("k", Json.Null) ] ] ])

let test_json_parse_offsets () =
  let err text offset =
    match Json.parse text with
    | Ok _ -> Alcotest.failf "%S parsed" text
    | Error e ->
        Alcotest.(check int)
          (Printf.sprintf "offset in %S" text)
          offset e.Json.offset
  in
  err "" 0;
  err "[1," 3;
  err "[1, 2" 5;
  err "{\"a\":1} x" 8;
  err "{\"a\" 1}" 5;
  err "nul" 0;
  (* the depth cap turns adversarial nesting into a parse error *)
  match Json.parse (String.make (Json.max_depth + 10) '[') with
  | Ok _ -> Alcotest.fail "over-deep input accepted"
  | Error e ->
      Alcotest.(check bool) "depth error is positioned" true (e.Json.offset > 0)

let test_json_accessors () =
  let j = Json.Obj [ ("n", Json.Int 7); ("f", Json.Float 2.5) ] in
  Alcotest.(check (option int)) "mem/to_int" (Some 7)
    (Option.bind (Json.mem "n" j) Json.to_int);
  (* ints widen when a float is expected *)
  Alcotest.(check (option (float 0.0))) "int widens" (Some 7.0)
    (Option.bind (Json.mem "n" j) Json.to_float);
  Alcotest.(check (option int)) "missing field" None
    (Option.bind (Json.mem "zzz" j) Json.to_int)

(* Emitter-normal trees: finite floats that survive the %.6g rendering,
   so parse ∘ emit is the identity (the documented contract). *)
let json_gen =
  let open QCheck2.Gen in
  let normal_float =
    map
      (fun f ->
        let f = if Float.is_finite f then f else 0.0 in
        float_of_string (Printf.sprintf "%.6g" f))
      float
  in
  let scalar =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        map (fun f -> Json.Float f) normal_float;
        map (fun s -> Json.String s) (string_size ~gen:printable (int_range 0 8));
      ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           oneof
             [
               scalar;
               map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n / 3)));
               map
                 (fun kvs -> Json.Obj kvs)
                 (list_size (int_range 0 4)
                    (pair
                       (string_size ~gen:printable (int_range 0 6))
                       (self (n / 3))));
             ])

let prop_json_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"Json.parse ∘ Json.to_string = Ok" json_gen
    (fun j ->
      match Json.parse (Json.to_string j) with
      | Ok j' -> j' = j
      | Error e ->
          QCheck2.Test.fail_reportf "parse failed at %d (%s) on %s"
            e.Json.offset e.Json.msg (Json.to_string j))

let prop_json_roundtrip_pretty =
  QCheck2.Test.make ~count:150
    ~name:"Json.parse ∘ Json.to_string_pretty = Ok" json_gen (fun j ->
      match Json.parse (Json.to_string_pretty j) with
      | Ok j' -> j' = j
      | Error e ->
          QCheck2.Test.fail_reportf "parse failed at %d (%s) on %s"
            e.Json.offset e.Json.msg (Json.to_string_pretty j))

let tests =
  [
    Alcotest.test_case "QL000 syntax error + span" `Quick test_ql000_syntax;
    Alcotest.test_case "QL001 unused variable" `Quick test_ql001_unused;
    Alcotest.test_case "QL002 disconnected" `Quick test_ql002_disconnected;
    Alcotest.test_case "QL003 degenerate disequality" `Quick test_ql003_degenerate_diseq;
    Alcotest.test_case "QL004 duplicate atom" `Quick test_ql004_duplicate_atom;
    Alcotest.test_case "QL005 negated twin" `Quick test_ql005_negated_twin;
    Alcotest.test_case "QL006 signature mismatch" `Quick test_ql006_signature;
    Alcotest.test_case "QL007 star size" `Quick test_ql007_star_size;
    Alcotest.test_case "QL008 width blow-up" `Quick test_ql008_width;
    Alcotest.test_case "QL009 unguarded variable" `Quick test_ql009_unguarded;
    Alcotest.test_case "QL010 empty relation" `Quick test_ql010_empty_relation;
    Alcotest.test_case "QL011 quantifier-free" `Quick test_ql011_quantifier_free;
    Alcotest.test_case "QL012 output blow-up" `Quick test_ql012_output_blowup;
    Alcotest.test_case "atom spans align with source" `Quick test_spans_align;
    Alcotest.test_case "parse errors carry positions" `Quick test_parse_error_positions;
    Alcotest.test_case "report JSON smoke" `Quick test_json_smoke;
    Alcotest.test_case "Json.parse: values" `Quick test_json_parse_values;
    Alcotest.test_case "Json.parse: error offsets" `Quick
      test_json_parse_offsets;
    Alcotest.test_case "Json accessors" `Quick test_json_accessors;
    QCheck_alcotest.to_alcotest prop_clean_never_raises;
    QCheck_alcotest.to_alcotest prop_always_empty_counts_zero;
    QCheck_alcotest.to_alcotest prop_classification_renaming_invariant;
    QCheck_alcotest.to_alcotest prop_json_roundtrip;
    QCheck_alcotest.to_alcotest prop_json_roundtrip_pretty;
  ]
