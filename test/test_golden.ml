(* Byte-for-byte goldens for everything the daemon puts on the wire or
   on disk. [golden/wire.tsv] holds one frame per line:
   [kind <TAB> frame <TAB> outcome], where [kind] is [request] or
   [response] and [outcome] is [=] (the frame decodes and re-encodes to
   itself), [ok FRAME] (it decodes, and re-encoding the value gives
   FRAME) or [error MESSAGE] (the exact decode error). The journal and
   manifest under [golden/] were written by a running daemon (a merge
   at version 7, four batches after it); they must replay, recover and
   re-encode unchanged.

   [golden/estimates.tsv] pins seeded estimates: one row per
   [Api.run] (every method on a CQ, a DCQ and an ECQ with negation, at
   seeds 1 and 7 and jobs 1 and 3), per [Api.sample] draw batch and per
   strict governed planner run, with the estimate as the hex of
   [Int64.bits_of_float]. Its last rows pin the single-stream paths:
   one DLM edge-count estimate, JVV and DLM sampler draws per query and
   one Karp-Luby union count, each from one seeded [Random.State.t].

   [golden/cost.tsv] pins the cost model over the [examples/queries]
   corpus on two seeded [Dbgen] databases (the second dense enough that
   a negated atom's complement is its smallest relation): per query the
   exact rung's join order, then each ranked alternative's rung and
   log2 probes, probe cost and cost as [%h], at the default targets and
   at eps 0.05, delta 0.01. *)

module Json = Ac_analysis.Json
module Wire = Ac_server.Wire
module Catalog = Ac_server.Catalog
module Manifest = Ac_server.Manifest
module Journal = Ac_live.Journal
module Error = Ac_runtime.Error
module Api = Approxcount.Api
module Planner = Approxcount.Planner
module Sampling = Approxcount.Sampling
module Colour_oracle = Approxcount.Colour_oracle
module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Engine = Ac_exec.Engine

(* [dune runtest] runs from the test directory, [dune exec] from the root *)
let golden name =
  Filename.concat
    (if Sys.file_exists "golden" then "golden" else "test/golden")
    name
let read_file path = In_channel.with_open_bin path In_channel.input_all

let tmp_dir () =
  let dir = Filename.temp_file "acq_golden" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  dir

let rm_rf dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

let wire_lines () =
  read_file (golden "wire.tsv")
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")
  |> List.map (fun l ->
         match String.split_on_char '\t' l with
         | [ kind; frame; outcome ] -> (kind, frame, outcome)
         | _ -> Alcotest.failf "malformed golden line: %s" l)

let decode_outcome kind frame =
  match Json.parse frame with
  | Error e -> Alcotest.failf "%s: %s" frame (Json.error_message e)
  | Ok j -> (
      let id = Wire.json_id j in
      let reencode to_json v = Json.to_string (to_json ?id v) in
      let render to_json = function
        | Ok v ->
            let s = reencode to_json v in
            if s = frame then "=" else "ok " ^ s
        | Error msg -> "error " ^ msg
      in
      match kind with
      | "request" -> render Wire.request_to_json (Wire.request_of_json j)
      | "response" -> render Wire.response_to_json (Wire.response_of_json j)
      | k -> Alcotest.failf "unknown golden kind %S" k)

let test_wire () =
  let lines = wire_lines () in
  Alcotest.(check bool) "corpus is non-trivial" true (List.length lines > 150);
  (* report every drifted frame at once *)
  let drifted =
    List.concat_map
      (fun (kind, frame, outcome) ->
        let check frame expected =
          let got = decode_outcome kind frame in
          if got = expected then []
          else [ Printf.sprintf "%s\n  expected: %s\n  got:      %s" frame expected got ]
        in
        (* an accepted frame's canonical re-encoding is itself a fixed point *)
        check frame outcome
        @
        if String.starts_with ~prefix:"ok " outcome then
          check (String.sub outcome 3 (String.length outcome - 3)) "="
        else [])
      lines
  in
  if drifted <> [] then
    Alcotest.failf "%d golden frame(s) drifted:\n%s" (List.length drifted)
      (String.concat "\n" drifted)

let test_journal () =
  let lines =
    match Journal.replay (golden "cat.manifest.g.journal") with
    | Ok lines -> lines
    | Error e -> Alcotest.failf "replay: %s" (Error.message e)
  in
  Alcotest.(check (list int)) "sequence numbers" [ 8; 9; 10; 11 ]
    (List.map (fun (l : Journal.line) -> l.Journal.seq) lines);
  let dir = tmp_dir () in
  let path = Filename.concat dir "j" in
  List.iter
    (fun l ->
      match Journal.append path l with
      | Ok () -> ()
      | Error e -> Alcotest.failf "append: %s" (Error.message e))
    lines;
  Alcotest.(check string) "re-appended journal is byte-identical"
    (read_file (golden "cat.manifest.g.journal"))
    (read_file path);
  rm_rf dir

let test_manifest () =
  let entries =
    match Manifest.read ~path:(golden "cat.manifest") with
    | Ok entries -> entries
    | Error e -> Alcotest.failf "read: %s" (Error.message e)
  in
  let dir = tmp_dir () in
  let path = Filename.concat dir "m" in
  (match Manifest.write ~path entries with
  | Ok () -> ()
  | Error e -> Alcotest.failf "write: %s" (Error.message e));
  Alcotest.(check string) "rewritten manifest is byte-identical"
    (read_file (golden "cat.manifest"))
    (read_file path);
  rm_rf dir

(* The manifest names its snapshot and journal by relative path, so the
   recovery runs from a copy of the golden directory. *)
let test_recover () =
  let dir = tmp_dir () in
  List.iter
    (fun f ->
      Out_channel.with_open_bin (Filename.concat dir f) (fun oc ->
          Out_channel.output_string oc (read_file (golden f))))
    [ "cat.manifest"; "cat.manifest.g.journal"; "cat.manifest.g.v7.snapshot" ];
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () ->
      Sys.chdir cwd;
      rm_rf dir)
    (fun () ->
      Sys.chdir dir;
      let catalog = Catalog.create () in
      (match Manifest.recover ~path:"cat.manifest" catalog with
      | Ok names -> Alcotest.(check (list string)) "recovered" [ "g" ] names
      | Error e -> Alcotest.failf "recover: %s" (Error.message e));
      match Catalog.find catalog "g" with
      | None -> Alcotest.fail "g not in the catalog"
      | Some e ->
          Alcotest.(check int) "version" 11 e.Catalog.version;
          Alcotest.(check string) "rolling fingerprint"
            "46c5918ea5dc9747b479d35b3b908bf5" e.Catalog.fingerprint)

(* ---------- seeded estimates ---------- *)

let estimate_db () =
  Ac_workload.Graph.to_structure
    (Ac_workload.Graph.random_gnp ~rng:(Random.State.make [| 2022 |]) 20 0.3)

let estimate_queries =
  [
    ("cq", "ans(x, y) :- E(x, z), E(z, y)");
    ("dcq", "ans(x, y) :- E(x, z), E(y, z), x != y");
    ("ecq", "ans(x, y) :- E(x, z), E(z, y), !E(x, y), x != y");
  ]

let estimate_methods =
  Api.
    [
      Auto; Fpras; Fptras Colour_oracle.Tree_dp; Fptras Colour_oracle.Generic;
      Fptras Colour_oracle.Direct; Exact; Brute;
    ]

let bits v = Printf.sprintf "%016Lx" (Int64.bits_of_float v)

let estimate_row ~estimate ~exact ~rung ~degraded =
  String.concat "\t"
    [ bits estimate; string_of_bool exact; rung; string_of_bool degraded ]

let error_row e = "error\t" ^ Error.class_name e

(* The strict governed runs the planner tests make: (name, query, db,
   engine seed). *)
let governed_cases () =
  let small =
    Structure.of_facts ~universe_size:6
      [ ("E", [| 0; 1 |]); ("E", [| 1; 2 |]); ("E", [| 0; 2 |]); ("E", [| 3; 4 |]) ]
  in
  let little =
    Structure.of_facts ~universe_size:8
      [
        ("E", [| 0; 1 |]); ("E", [| 0; 2 |]); ("E", [| 1; 2 |]);
        ("E", [| 2; 3 |]); ("E", [| 3; 4 |]); ("E", [| 3; 5 |]);
        ("E", [| 5; 6 |]); ("E", [| 6; 7 |]); ("E", [| 6; 0 |]);
      ]
  in
  [
    ("planner-cq", "ans(x) :- E(x, y), E(y, z)", small, 3);
    ("planner-dcq", "ans(x) :- E(x, y), E(x, z), y != z", small, 3);
    ("runtime-dcq", "ans(x) :- E(x, y), E(x, z), y != z", little, 1);
    ("gnp-cq", "ans(x, y) :- E(x, z), E(z, y)", estimate_db (), 1);
  ]

(* The single-stream paths: every draw comes from one [Random.State.t]
   consumed in a fixed order, so each row pins that order. *)
let single_stream_lines db =
  let rng_of seed = Random.State.make [| seed |] in
  let draw_text = function
    | None -> "-"
    | Some a -> String.concat "," (Array.to_list (Array.map string_of_int a))
  in
  let dlm =
    (* test_dlm's overlapping instance: 400 edges through class-0
       vertex 0, large enough that the estimator samples (level > 0) *)
    let space = Ac_dlm.Partite.space [| 30; 500 |] in
    let edges = List.init 400 (fun j -> [| 0; j |]) in
    let oracle ~rng:_ parts =
      not
        (List.exists
           (fun e ->
             Array.exists (( = ) e.(0)) parts.(0)
             && Array.exists (( = ) e.(1)) parts.(1))
           edges)
    in
    let r =
      Ac_dlm.Edge_count.estimate ~source:(Stream (rng_of 13)) ~epsilon:0.25
        ~delta:0.1 space oracle
    in
    Printf.sprintf "dlm-estimate\toverlap-400\t13\t%s\t%b\t%d\t%d"
      (bits r.Ac_dlm.Edge_count.value) r.exact r.level r.repetitions
  in
  let per_query name f =
    List.map
      (fun (qname, text) ->
        Printf.sprintf "%s\t%s\t5\t%s" name qname
          (draw_text (f ~rng:(rng_of 5) (Ecq.parse text))))
      estimate_queries
  in
  let union =
    Sampling.union_count_karp_luby ~rng:(rng_of 5)
      (List.map (fun (_, text) -> Ecq.parse text) estimate_queries)
      db
  in
  (dlm :: per_query "jvv-sample" (fun ~rng q ->
       Sampling.sample ~rng ~eps:0.5 ~delta:0.2 q db))
  @ per_query "dlm-sample" (fun ~rng q ->
        Sampling.sample_dlm ~rng ~eps:0.5 ~delta:0.2 q db)
  @ [ Printf.sprintf "karp-luby\tcq+dcq+ecq\t5\t%s" (bits union) ]

let estimate_lines () =
  let db = estimate_db () in
  let runs =
    List.concat_map
      (fun (qname, text) ->
        let q = Ecq.parse text in
        List.concat_map
          (fun m ->
            List.concat_map
              (fun seed ->
                List.map
                  (fun jobs ->
                    let r =
                      Api.Request.(
                        make q db |> with_eps 0.5 |> with_method m
                        |> with_seed (Some seed)
                        |> with_jobs (Some jobs))
                    in
                    let row =
                      match Api.run r with
                      | Ok resp ->
                          estimate_row ~estimate:resp.Api.estimate
                            ~exact:resp.Api.exact
                            ~rung:
                              (match resp.Api.rung with
                              | Some r -> Planner.rung_name r
                              | None -> "-")
                            ~degraded:resp.Api.degraded
                      | Error e -> error_row e
                    in
                    Printf.sprintf "run\t%s\t%s\t%d\t%d\t%s"
                      (Api.method_name m) qname seed jobs row)
                  [ 1; 3 ])
              [ 1; 7 ])
          estimate_methods)
      estimate_queries
  in
  let samples =
    List.map
      (fun (qname, text) ->
        let r =
          Api.Request.(make (Ecq.parse text) db |> with_seed (Some 5))
        in
        let row =
          match Api.sample ~draws:4 r with
          | Ok s ->
              s.Api.draws
              |> Array.to_list
              |> List.map (function
                   | None -> "-"
                   | Some a ->
                       String.concat ","
                         (Array.to_list (Array.map string_of_int a)))
              |> String.concat " "
          | Error e -> error_row e
        in
        Printf.sprintf "sample\t%s\t5\t%s" qname row)
      estimate_queries
  in
  let governed =
    List.map
      (fun (name, text, db, seed) ->
        let exec = Engine.make ~jobs:1 ~seed () in
        let row =
          match
            Ac_test_support.Governed.count ~exec ~strict:true ~eps:0.3
              ~delta:0.2 (Ecq.parse text) db
          with
          | Ok g ->
              estimate_row ~estimate:g.Planner.estimate
                ~exact:(g.Planner.rung = Ac_analysis.Rung.Exact)
                ~rung:(Planner.rung_name g.Planner.rung)
                ~degraded:g.Planner.degraded
          | Error e -> error_row e
        in
        Printf.sprintf "governed\t%s\t%d\t1\t%s" name seed row)
      (governed_cases ())
  in
  runs @ samples @ governed @ single_stream_lines db


let test_estimates () =
  let expected =
    read_file (golden "estimates.tsv")
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let got = estimate_lines () in
  Alcotest.(check int) "row count" (List.length expected) (List.length got);
  let drifted =
    List.concat
      (List.map2
         (fun e g ->
           if e = g then []
           else [ Printf.sprintf "  expected: %s\n  got:      %s" e g ])
         expected got)
  in
  if drifted <> [] then
    Alcotest.failf "%d estimate row(s) drifted:\n%s" (List.length drifted)
      (String.concat "\n" drifted)

(* ---------- cost model ---------- *)

let cost_lines () =
  let module Cost = Ac_analysis.Cost in
  let module Cardinality = Ac_analysis.Cardinality in
  let dbs =
    [
      ("sparse", 11, 40, [ ("E", 2, 200); ("R", 2, 200); ("P", 1, 30) ]);
      ("dense", 12, 12, [ ("E", 2, 130); ("R", 2, 40); ("P", 1, 5) ]);
    ]
  in
  List.concat_map
    (fun (dname, seed, universe_size, relations) ->
      let db =
        Ac_workload.Dbgen.random_structure
          ~rng:(Random.State.make [| seed |])
          ~universe_size relations
      in
      let stats = Cardinality.of_structure db in
      List.concat_map
        (fun (qname, q) ->
          let cost =
            Cost.analyze ~stats q (Ac_analysis.Classify.classify q)
          in
          let order =
            Cost.join_order ~stats q |> Array.to_list
            |> List.map string_of_int |> String.concat ","
          in
          let alts target alternatives =
            List.map
              (fun (a : Cost.alternative) ->
                Printf.sprintf "%s\t%s\t%s\t%s\t%h\t%h\t%h" dname qname target
                  (Cost.rung_name a.Cost.rung) a.Cost.log2_probes
                  a.Cost.log2_probe_cost a.Cost.log2_cost)
              alternatives
          in
          (Printf.sprintf "%s\t%s\torder\t%s" dname qname order
          :: alts "0.25/0.1" cost.Cost.alternatives)
          @ alts "0.05/0.01" (Cost.rank ~eps:0.05 ~delta:0.01 cost))
        (Test_cost.corpus ()))
    dbs

let test_cost () =
  Alcotest.(check string) "cost.tsv is byte-identical"
    (read_file (golden "cost.tsv"))
    (String.concat "" (List.map (fun l -> l ^ "\n") (cost_lines ())))

let tests =
  [
    Alcotest.test_case "wire frames decode and re-encode byte-for-byte" `Quick
      test_wire;
    Alcotest.test_case "journal replays and re-encodes byte-for-byte" `Quick
      test_journal;
    Alcotest.test_case "manifest reads and re-writes byte-for-byte" `Quick
      test_manifest;
    Alcotest.test_case "golden manifest + journal recover" `Quick test_recover;
    Alcotest.test_case "seeded estimates are bit-identical" `Quick
      test_estimates;
    Alcotest.test_case "cost model prices the corpus byte-for-byte" `Quick
      test_cost;
  ]
