module Json = Ac_analysis.Json
module Error = Ac_runtime.Error
module Metrics = Ac_obs.Metrics
module Live = Ac_live.Live
module Journal = Ac_live.Journal

let m_recoveries =
  lazy
    (Metrics.counter Metrics.global "acq_recovery_total"
       ~help:"Catalog recoveries attempted from a manifest")

let m_recovered_entries =
  lazy
    (Metrics.counter Metrics.global "acq_recovery_entries_total"
       ~help:"Catalog entries replayed (fingerprint-verified) from a manifest")

let m_replayed_batches =
  lazy
    (Metrics.counter Metrics.global "acq_recovery_batches_total"
       ~help:"Journal batches replayed (fingerprint-chain-verified) during \
              recovery")

type entry = {
  name : string;
  path : string;
  fingerprint : string;
  db_version : int;
  live_fingerprint : string;
  journal : string option;
  partition : string option;
}

let version = 1

(* ---------- codec ---------- *)

module Codec = Ac_analysis.Codec

(* The live fields are additive (version 1 readers older than them fill
   in the static-catalog defaults: db_version 0, live fingerprint =
   content fingerprint, no journal), so the manifest version stays 1;
   they are written only when they differ from those defaults. *)
let entry =
  Codec.(
    record
      (fun name path fingerprint db_version live_fingerprint journal partition ->
        {
          name;
          path;
          fingerprint;
          db_version;
          live_fingerprint = Option.value live_fingerprint ~default:fingerprint;
          journal;
          partition;
        })
      [
        req "name" string (fun e -> e.name);
        req "path" string (fun e -> e.path);
        req "fingerprint" string (fun e -> e.fingerprint);
        lax ~omit:(( = ) 0) "db_version" int 0 (fun e -> e.db_version);
        lax_opt "live_fingerprint" string (fun e ->
            if e.live_fingerprint = e.fingerprint then None
            else Some e.live_fingerprint);
        lax_opt "journal" string (fun e -> e.journal);
        lax_opt "partition" string (fun e -> e.partition);
      ])

let no_databases = "manifest: missing \"databases\" list"

(* a missing or non-integer manifest_version reads as this one *)
let manifest =
  Codec.(
    record
      (fun (_ : int) entries -> entries)
      [
        dft "manifest_version"
          (refine
             (fun v ->
               if v = version then Ok v
               else Error (Printf.sprintf "unsupported manifest version %d" v))
             (or_default version int))
          version
          (fun _ -> version);
        req ~missing:no_databases "databases"
          (list
             ~bad:(fun _ -> no_databases)
             (with_error
                (fun _ -> "manifest entry: need name, path, fingerprint strings")
                (obj entry)))
          Fun.id;
      ])

let entry_to_json e = Codec.to_json (Codec.obj entry) e
let to_json entries = Json.Obj (Codec.emit manifest entries [])
let gen_entry = Codec.gen_record entry

(* ---------- atomic persistence ---------- *)

let write ~path entries =
  Journal.write_atomic path (Json.to_string_pretty (to_json entries) ^ "\n")

let snapshot ?partition catalog =
  List.map
    (fun (p : Catalog.persistence) ->
      {
        name = p.Catalog.p_name;
        path = p.Catalog.p_path;
        fingerprint = p.Catalog.p_fingerprint;
        db_version = p.Catalog.p_version;
        live_fingerprint = p.Catalog.p_live_fingerprint;
        journal = p.Catalog.p_journal;
        partition;
      })
    (Catalog.persistence catalog)

let store ~path ?partition catalog = write ~path (snapshot ?partition catalog)

let read ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Result.Error (Error.Io { file = path; msg })
  | text -> (
      match Json.parse text with
      | Result.Error e ->
          Result.Error
            (Error.Parse { source = path; msg = Json.error_message e })
      | Ok j ->
          Result.map_error
            (fun msg -> Error.Parse { source = path; msg })
            (Codec.read manifest j))

(* ---------- recovery ---------- *)

(* Replay the delta journal on top of a freshly loaded snapshot. Lines
   at or below the snapshot's version are already contained in the
   snapshot — a crash between the post-merge manifest rewrite and the
   journal truncate leaves already-compacted batches in the journal —
   so they are not re-applied, but their idempotency keys are
   registered so a client retry after the crash is still answered as a
   replay (change counts are not in the journal, so such a replay
   reports zero inserted/deleted). Applied lines must be gap-free from
   the snapshot's version on — appends happen under the db mutex in
   version order, so a missing sequence number means an acknowledged
   batch is gone — and every applied line must land on the fingerprint
   it recorded; a diverging chain means the journal does not belong to
   this snapshot, and serving it would silently change estimates. *)
let replay_journal ~journal_path live entry =
  match Journal.replay journal_path with
  | Result.Error e -> Result.Error e
  | Ok lines ->
      let rec go expected = function
        | [] -> Ok ()
        | (l : Journal.line) :: rest ->
            if l.Journal.seq <= entry.db_version then begin
              (match l.Journal.id with
              | Some id ->
                  Live.Db.record_batch live ~id
                    {
                      Live.Db.version = l.Journal.seq;
                      fingerprint = l.Journal.fingerprint;
                      inserted = 0;
                      deleted = 0;
                      replayed = false;
                    }
              | None -> ());
              go expected rest
            end
            else if l.Journal.seq <> expected then
              Result.Error
                (Error.Io
                   {
                     file = journal_path;
                     msg =
                       Printf.sprintf
                         "journal gap replaying %s: expected batch %d, found \
                          %d — acknowledged batches are missing from the \
                          journal"
                         entry.name expected l.Journal.seq;
                   })
            else (
              match Live.Db.apply ?id:l.Journal.id live l.Journal.ops with
              | Result.Error e -> Result.Error e
              | Ok applied ->
                  if applied.Live.Db.fingerprint <> l.Journal.fingerprint then
                    Result.Error
                      (Error.Io
                         {
                           file = journal_path;
                           msg =
                             Printf.sprintf
                               "fingerprint mismatch replaying %s at batch %d: \
                                journal has %s, replay produced %s — the \
                                journal does not match the snapshot"
                               entry.name l.Journal.seq l.Journal.fingerprint
                               applied.Live.Db.fingerprint;
                         })
                  else begin
                    Metrics.incr (Lazy.force m_replayed_batches);
                    go (expected + 1) rest
                  end)
      in
      go (entry.db_version + 1) lines

let recover ~path catalog =
  match read ~path with
  | Result.Error e -> Result.Error e
  | Ok entries ->
      Metrics.incr (Lazy.force m_recoveries);
      let rec replay recovered = function
        | [] -> Ok (List.rev recovered)
        | e :: rest -> (
            match
              Catalog.load ~version:e.db_version
                ~live_fingerprint:e.live_fingerprint ?journal:e.journal catalog
                ~name:e.name ~path:e.path
            with
            | Result.Error err -> Result.Error err
            | Ok _loaded ->
                (* the {e content} fingerprint guards the snapshot file:
                   the loaded entry's rolling fingerprint is whatever the
                   manifest recorded (it was passed in), so drift is
                   detected against the file's own digest, which the
                   catalog keeps in its persistence record *)
                let file_fp =
                  List.find_map
                    (fun (p : Catalog.persistence) ->
                      if p.Catalog.p_name = e.name then
                        Some p.Catalog.p_fingerprint
                      else None)
                    (Catalog.persistence catalog)
                  |> Option.value ~default:"(unknown)"
                in
                if file_fp <> e.fingerprint then
                  Result.Error
                    (Error.Io
                       {
                         file = e.path;
                         msg =
                           Printf.sprintf
                             "fingerprint mismatch recovering %s: manifest has \
                              %s, file has %s — the data changed since the \
                              manifest was written"
                             e.name e.fingerprint file_fp;
                       })
                else
                  let journal_result =
                    match e.journal with
                    | None -> Ok ()
                    | Some journal_path -> (
                        match Catalog.live_find catalog e.name with
                        | None -> Ok ()
                        | Some live -> replay_journal ~journal_path live e)
                  in
                  (match journal_result with
                  | Result.Error err -> Result.Error err
                  | Ok () ->
                      Metrics.incr (Lazy.force m_recovered_entries);
                      replay (e.name :: recovered) rest))
      in
      replay [] entries
