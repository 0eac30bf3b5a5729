(* Byte-for-byte goldens for everything the daemon puts on the wire or
   on disk. [golden/wire.tsv] holds one frame per line:
   [kind <TAB> frame <TAB> outcome], where [kind] is [request] or
   [response] and [outcome] is [=] (the frame decodes and re-encodes to
   itself), [ok FRAME] (it decodes, and re-encoding the value gives
   FRAME) or [error MESSAGE] (the exact decode error). The journal and
   manifest under [golden/] were written by a running daemon (a merge
   at version 7, four batches after it); they must replay, recover and
   re-encode unchanged. *)

module Json = Ac_analysis.Json
module Wire = Ac_server.Wire
module Catalog = Ac_server.Catalog
module Manifest = Ac_server.Manifest
module Journal = Ac_live.Journal
module Error = Ac_runtime.Error

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

let tests =
  [
    Alcotest.test_case "wire frames decode and re-encode byte-for-byte" `Quick
      test_wire;
    Alcotest.test_case "journal replays and re-encodes byte-for-byte" `Quick
      test_journal;
    Alcotest.test_case "manifest reads and re-writes byte-for-byte" `Quick
      test_manifest;
    Alcotest.test_case "golden manifest + journal recover" `Quick test_recover;
  ]
