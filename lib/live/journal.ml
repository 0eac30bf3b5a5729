module Json = Ac_analysis.Json
module Error = Ac_runtime.Error

type line = {
  seq : int;
  id : string option;
  fingerprint : string;
  ops : Live.Db.op list;
}

module Codec = Ac_analysis.Codec

let tuple =
  Codec.(
    array
      ~bad:(Printf.sprintf "field %S must contain integer lists")
      (with_error (Printf.sprintf "field %S: tuple components must be integers") int))

let direction =
  Codec.enum
    ~unknown:(Printf.sprintf "unknown op %S (insert|delete)")
    (fun insert -> if insert then "insert" else "delete")
    (function "insert" -> Some true | "delete" -> Some false | _ -> None)
    [ true; false ]

let op =
  Codec.(
    obj
      (record
         (fun insert rel tuple : Live.Db.op ->
           if insert then Insert { rel; tuple } else Delete { rel; tuple })
         [
           req "op" direction (function Live.Db.Insert _ -> true | Delete _ -> false);
           req "rel" string (function
             | Live.Db.Insert { rel; _ } | Delete { rel; _ } -> rel);
           req "tuple" tuple (function
             | Live.Db.Insert { tuple; _ } | Delete { tuple; _ } -> tuple);
         ]))

(* the client's idempotency key is lenient: a line whose id is not a
   string still replays, as an id-less batch *)
let line_record =
  Codec.(
    record
      (fun seq id fingerprint ops -> { seq; id; fingerprint; ops })
      [
        req "seq" int (fun l -> l.seq);
        lax_opt "id" string (fun l -> l.id);
        req "fingerprint" string (fun l -> l.fingerprint);
        req "ops" (list op) (fun l -> l.ops);
      ])

let encode_line l = Json.to_string (Json.Obj (Codec.emit line_record l []))

let decode_line s =
  match Json.parse s with
  | Ok j -> Result.to_option (Codec.read line_record j)
  | Error _ -> None

let gen_line = Codec.gen_record line_record

let io_error path exn =
  let msg =
    match exn with
    | Unix.Unix_error (e, _, _) -> Unix.error_message e
    | Sys_error m -> m
    | e -> Printexc.to_string e
  in
  Error.Io { file = path; msg }

(* Durability against power loss, not just process crashes, needs the
   {e directory} flushed too: file creation and renames live in the
   directory's data, and an unflushed directory can forget a file whose
   contents were fsynced. Best-effort — not every filesystem lets a
   directory fd be fsynced, and the file-level fsync already covers the
   process-crash case. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

(* The whole payload in a single [write], then [fsync]. *)
let write_synced fd path payload =
  let n = Unix.write_substring fd payload 0 (String.length payload) in
  if n <> String.length payload then raise (Sys_error ("short write to " ^ path));
  Unix.fsync fd

(* One durable write per batch: open in append mode, write the whole
   line (payload + newline) with a single [write], fsync, close — and
   when the append created the file, fsync the directory so the new
   name itself survives power loss. The newline is the commit marker —
   replay treats an unterminated final line as a torn write and drops
   it. *)
let append path l =
  match
    let created = not (Sys.file_exists path) in
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> write_synced fd path (encode_line l ^ "\n"));
    if created then fsync_dir (Filename.dirname path)
  with
  | () -> Ok ()
  | exception e -> Error (io_error path e)

(* Write to [path.tmp], fsync it, rename it over [path], fsync the
   directory: a crash (or power loss) at any instruction leaves either
   the old complete file or the new complete file, never a torn one,
   and never a rename of bytes that had not reached the disk. *)
let write_atomic path contents =
  let tmp = path ^ ".tmp" in
  match
    let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CREAT ] 0o644 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () -> write_synced fd tmp contents);
    Unix.rename tmp path;
    fsync_dir (Filename.dirname path)
  with
  | () -> Ok ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      Error (io_error path e)

let replay path =
  if not (Sys.file_exists path) then Ok []
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let len = in_channel_length ic in
          really_input_string ic len)
    with
    | exception e -> Error (io_error path e)
    | contents ->
        (* A crash can tear only the final line (appends are
           sequential): a trailing fragment with no newline is dropped;
           anything unreadable before that is corruption. *)
        let terminated = String.length contents = 0
                         || contents.[String.length contents - 1] = '\n' in
        let raw_lines = String.split_on_char '\n' contents in
        let raw_lines =
          List.filteri
            (fun _ s -> String.trim s <> "")
            raw_lines
        in
        let n = List.length raw_lines in
        let rec decode i acc = function
          | [] -> Ok (List.rev acc)
          | s :: rest -> (
              match decode_line s with
              | Some l -> decode (i + 1) (l :: acc) rest
              | None when i = n - 1 && not terminated ->
                  (* torn tail: the batch was never acknowledged *)
                  Ok (List.rev acc)
              | None ->
                  Error
                    (Error.Parse
                       {
                         source = path;
                         msg =
                           Printf.sprintf
                             "journal line %d is not a valid mutation record"
                             (i + 1);
                       }))
        in
        decode 0 [] raw_lines

let reset path =
  match
    let created = not (Sys.file_exists path) in
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_TRUNC; Unix.O_CREAT ] 0o644
    in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd);
    if created then fsync_dir (Filename.dirname path)
  with
  | () -> Ok ()
  | exception e -> Error (io_error path e)

(* Atomic rewrite keeping only lines above the compacted version. The
   caller must serialize against concurrent appends (the server holds
   the db's write lock, [Live.Db.exclusively]) or a batch appended
   between the read and the rename would be silently dropped. *)
let truncate path ~upto =
  match replay path with
  | Error _ as e -> e
  | Ok lines ->
      let buf = Buffer.create 256 in
      List.iter
        (fun l ->
          if l.seq > upto then begin
            Buffer.add_string buf (encode_line l);
            Buffer.add_char buf '\n'
          end)
        lines;
      write_atomic path (Buffer.contents buf)
