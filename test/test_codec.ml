(* The field-descriptor codecs: every declaration round-trips its own
   generator through encode, print, parse and decode; ε and δ travel
   bit-exact and in range; and the decoders are total on random and
   mutated input. *)

module Json = Ac_analysis.Json
module Codec = Ac_analysis.Codec
module Api = Approxcount.Api
module Wire = Ac_server.Wire
module Manifest = Ac_server.Manifest
module Journal = Ac_live.Journal
module Error = Ac_runtime.Error

let through_text j =
  match Json.parse (Json.to_string j) with
  | Ok j -> j
  | Error e -> Alcotest.failf "printed JSON does not parse: %s" (Json.error_message e)

let gen_of f = QCheck2.Gen.make_primitive ~gen:f ~shrink:(fun _ -> Seq.empty)

(* ---------- exact ε/δ transport ---------- *)

let bits = Int64.bits_of_float

let accuracy_gen ~lo ~hi specials =
  QCheck2.Gen.(
    oneof [ oneofl specials; float_range lo hi; map (fun n -> 1.0 /. float_of_int n) (int_range 2 1000) ])

let prop_params_exact =
  QCheck2.Test.make ~count:500 ~name:"params: eps/delta survive the wire bit-for-bit"
    ~print:(fun (e, d) -> Printf.sprintf "eps %h delta %h" e d)
    QCheck2.Gen.(
      pair
        (accuracy_gen ~lo:1e-6 ~hi:4.0 [ 1.0 /. 3.0; 0.25; 0.1; 2.0 /. 7.0 ])
        (accuracy_gen ~lo:1e-9 ~hi:0.999 [ 0.1 /. 3.0; 0.1; 0.05 /. 7.0 ]))
    (fun (eps, delta) ->
      let req = Wire.Count (Wire.params ~eps ~delta ~db:(Wire.Named "g") "ans(x) :- E(x,y)") in
      match Wire.request_of_json (through_text (Wire.request_to_json req)) with
      | Ok (Wire.Count p) -> bits p.Wire.eps = bits eps && bits p.Wire.delta = bits delta
      | _ -> false)

let test_exact_bytes () =
  let frame eps delta =
    Json.to_string
      (Wire.request_to_json (Wire.Count (Wire.params ~eps ~delta ~db:Wire.Session "q")))
  in
  (* values %.6g carries keep their bytes; the rest get the shortest
     exact rendering *)
  Alcotest.(check string) "defaults unchanged"
    {|{"verb":"count","version":1,"query":"q","eps":0.25,"delta":0.1,"method":"auto","strict":false}|}
    (frame 0.25 0.1);
  Alcotest.(check string) "1/3 and 0.1/3 exact"
    {|{"verb":"count","version":1,"query":"q","eps":0.3333333333333333,"delta":0.03333333333333333,"method":"auto","strict":false}|}
    (frame (1.0 /. 3.0) (0.1 /. 3.0));
  Alcotest.(check string) "integral floats keep their point" "[1.0,2e+20]"
    (Json.to_string (Json.List [ Json.Exact 1.0; Json.Exact 2e20 ]))

(* ---------- ε/δ range, one boundary each ---------- *)

let count_frame fields =
  Printf.sprintf {|{"verb":"count","query":"ans(x) :- E(x,y)","use":"g"%s}|} fields

let decode_frame s =
  match Json.parse s with
  | Ok j -> Wire.request_of_json j
  | Error e -> Error (Json.error_message e)

let refused fields () =
  match decode_frame (count_frame fields) with
  | Error msg ->
      Alcotest.(check bool) ("names the field: " ^ msg) true
        (String.starts_with ~prefix:"eps" msg || String.starts_with ~prefix:"delta" msg)
  | Ok _ -> Alcotest.failf "accepted %s" fields

let accepted fields () =
  match decode_frame (count_frame fields) with
  | Ok (Wire.Count _) -> ()
  | Ok _ -> Alcotest.fail "not a COUNT"
  | Error msg -> Alcotest.failf "refused %s: %s" fields msg

let boundary_tests =
  List.map
    (fun (name, f) -> Alcotest.test_case ("range: " ^ name) `Quick f)
    [
      ("eps = 0 refused", refused {|,"eps":0|});
      ("eps < 0 refused", refused {|,"eps":-1|});
      ("eps = 1e400 (inf) refused", refused {|,"eps":1e400|});
      ("eps = 5e-324 accepted", accepted {|,"eps":5e-324|});
      ("eps > 1 accepted", accepted {|,"eps":7|});
      ("delta = 0 refused", refused {|,"delta":0|});
      ("delta < 0 refused", refused {|,"delta":-0.5|});
      ("delta = 1 refused", refused {|,"delta":1|});
      ("delta = 1e400 (inf) refused", refused {|,"delta":1e400|});
      ("delta just below 1 accepted", accepted {|,"delta":0.9999999999999999|});
      ("delta = 1e-300 accepted", accepted {|,"delta":1e-300|});
      ("eps -1 with delta 7 refused", refused {|,"eps":-1,"delta":7|});
    ]

let test_check_accuracy () =
  let ok which v = Result.is_ok (Api.check_accuracy which v) in
  Alcotest.(check bool) "nan eps" false (ok `Eps Float.nan);
  Alcotest.(check bool) "nan delta" false (ok `Delta Float.nan);
  Alcotest.(check bool) "-inf delta" false (ok `Delta Float.neg_infinity);
  Alcotest.(check bool) "eps 0.25" true (ok `Eps 0.25);
  Alcotest.(check bool) "delta 0.1" true (ok `Delta 0.1)

(* ---------- round trips from the declarations' own generators ---------- *)

let prop_request_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"requests round-trip through text"
    (gen_of Wire.gen_request) (fun r ->
      Wire.request_of_json (through_text (Wire.request_to_json ~id:"x" r)) = Ok r)

let prop_response_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"responses round-trip through text"
    (gen_of Wire.gen_response) (fun r ->
      Wire.response_of_json (through_text (Wire.response_to_json r)) = Ok r)

let prop_journal_roundtrip =
  QCheck2.Test.make ~count:300 ~name:"journal lines round-trip"
    (gen_of Journal.gen_line) (fun l ->
      Journal.decode_line (Journal.encode_line l) = Some l)

let prop_manifest_roundtrip =
  QCheck2.Test.make ~count:100 ~name:"manifests round-trip through a file"
    (gen_of (fun rs -> List.init (Random.State.int rs 4) (fun _ -> Manifest.gen_entry rs)))
    (fun entries ->
      let path = Filename.temp_file "acq_codec" ".manifest" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Result.is_ok (Manifest.write ~path entries)
          && Manifest.read ~path = Ok entries))

(* ---------- totality ---------- *)

let field_names =
  [| "verb"; "version"; "id"; "query"; "eps"; "delta"; "method"; "use"; "db_inline";
     "seed"; "draws"; "tuples"; "ops"; "op"; "rel"; "tuple"; "status"; "error";
     "estimate"; "estimate_hex"; "telemetry"; "trace"; "aggs"; "samples"; "queue";
     "seq"; "fingerprint"; "format"; "metrics"; "stats"; "attempts"; "cache" |]

let rec nested rs depth =
  if depth = 0 then Json.Int 0
  else if Random.State.bool rs then Json.List [ nested rs (depth - 1) ]
  else Json.Obj [ (field_names.(Random.State.int rs (Array.length field_names)), nested rs (depth - 1)) ]

let wild rs =
  match Random.State.int rs 10 with
  | 0 -> Json.Int max_int
  | 1 -> Json.Int min_int
  | 2 -> Json.Float (Random.State.float rs 1e308 *. if Random.State.bool rs then 1e300 else -1.0)
  | 3 -> Json.Float (if Random.State.bool rs then Float.infinity else Float.nan)
  | 4 -> nested rs (1 + Random.State.int rs 2000)
  | 5 -> Json.String (String.sub "count0x1.8p+1insert" 0 (Random.State.int rs 19))
  | 6 -> Json.Null
  | 7 -> Json.Bool (Random.State.bool rs)
  | 8 -> Json.List []
  | _ -> Json.Obj []

(* replace, drop or duplicate members anywhere in the tree *)
let rec mutate rs j =
  match (Random.State.int rs 5, j) with
  | 0, _ -> wild rs
  | 1, Json.Obj fields ->
      Json.Obj (List.filter (fun _ -> Random.State.int rs 4 > 0) fields)
  | 2, Json.Obj fields ->
      let k = field_names.(Random.State.int rs (Array.length field_names)) in
      Json.Obj ((k, wild rs) :: fields)
  | _, Json.Obj fields ->
      Json.Obj (List.map (fun (k, v) -> (k, if Random.State.bool rs then mutate rs v else v)) fields)
  | _, Json.List items -> Json.List (List.map (mutate rs) items)
  | _ -> j

let frames rs =
  let base =
    match Random.State.int rs 3 with
    | 0 -> Wire.request_to_json (Wire.gen_request rs)
    | 1 -> Wire.response_to_json (Wire.gen_response rs)
    | _ -> (
        match Json.parse (Journal.encode_line (Journal.gen_line rs)) with
        | Ok j -> j
        | Error _ -> Json.Null)
  in
  let rec go j n = if n = 0 then j else go (mutate rs j) (n - 1) in
  go base (1 + Random.State.int rs 4)

let total f = match f () with _ -> true | exception e -> QCheck2.Test.fail_reportf "raised %s" (Printexc.to_string e)

let prop_decoders_total =
  QCheck2.Test.make ~count:2000 ~name:"decoders never raise on mutated frames"
    (gen_of frames) (fun j ->
      total (fun () -> Wire.request_of_json j)
      && total (fun () -> Wire.response_of_json j)
      && total (fun () -> Wire.json_id j)
      && total (fun () -> Journal.decode_line (Json.to_string j)))

(* text-level damage: truncation anywhere, stray bytes *)
let prop_journal_text_total =
  QCheck2.Test.make ~count:1000 ~name:"journal line decoder total on damaged text"
    (gen_of (fun rs ->
         let s = Journal.encode_line (Journal.gen_line rs) in
         let cut = String.sub s 0 (Random.State.int rs (String.length s + 1)) in
         if Random.State.bool rs then cut
         else cut ^ String.make 1 (Char.chr (Random.State.int rs 256))))
    (fun s -> total (fun () -> Journal.decode_line s))

let tests =
  [
    QCheck_alcotest.to_alcotest prop_params_exact;
    Alcotest.test_case "exact floats: bytes" `Quick test_exact_bytes;
    Alcotest.test_case "check_accuracy: non-finite" `Quick test_check_accuracy;
  ]
  @ boundary_tests
  @ List.map QCheck_alcotest.to_alcotest
      [
        prop_request_roundtrip;
        prop_response_roundtrip;
        prop_journal_roundtrip;
        prop_manifest_roundtrip;
        prop_decoders_total;
        prop_journal_text_total;
      ]
