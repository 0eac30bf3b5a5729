(* The live mutable-database subsystem (Ac_live + server wiring):

   - main+delta relations: insert/delete/tombstone semantics, and the
     pinned-order contract — the merged view enumerates exactly like a
     relation rebuilt from scratch, so estimates stay bit-identical
     per seed across any mutation history (checked at jobs 1, 2, 4);
   - merge compaction is content-preserving (qcheck property);
   - versioning: monotone counter, rolling fingerprint chain,
     batch-id replay (exactly-once);
   - the delta journal: append/replay round-trip, torn-tail drop,
     mid-file corruption refusal;
   - catalog entries rematerialize after mutation with honest
     main+delta statistics;
   - version-precise cache invalidation over the wire: hit → mutate →
     miss → hit, with exact result-cache counters, also under
     concurrent writers. *)

module Api = Approxcount.Api
module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Relation = Ac_relational.Relation
module Error = Ac_runtime.Error
module Json = Ac_analysis.Json
module Live = Ac_live.Live
module Journal = Ac_live.Journal
module Wire = Ac_server.Wire
module Cache = Ac_server.Cache
module Catalog = Ac_server.Catalog
module Server = Ac_server.Server
module Metrics = Ac_obs.Metrics

(* ---------- a mutation stream and its from-scratch reference ---------- *)

(* The reference model: per relation, its arity and current fact set.
   Mirrors Live.Db semantics op by op; [rebuild] turns it into a fresh
   sealed structure — what a database reloaded from a dump would be. *)
type model = (string, int * (int array, unit) Hashtbl.t) Hashtbl.t

let model_apply (model : model) = function
  | Live.Db.Insert { rel; tuple } ->
      let _, set =
        match Hashtbl.find_opt model rel with
        | Some entry -> entry
        | None ->
            let entry = (Array.length tuple, Hashtbl.create 64) in
            Hashtbl.replace model rel entry;
            entry
      in
      Hashtbl.replace set tuple ()
  | Live.Db.Delete { rel; tuple } -> (
      match Hashtbl.find_opt model rel with
      | Some (_, set) -> Hashtbl.remove set tuple
      | None -> ())

let rebuild ~universe_size (model : model) =
  let s = Structure.create ~universe_size in
  Hashtbl.iter
    (fun rel (arity, set) ->
      Structure.declare s rel ~arity;
      Hashtbl.iter (fun tuple () -> Structure.add_fact s rel tuple) set)
    model;
  Structure.seal s

let random_edge rng n =
  [| Random.State.int rng n; Random.State.int rng n |]

(* ~2/3 inserts; half of the deletes target a currently-live tuple so
   tombstones actually exercise the merge path. *)
let random_op rng ~universe_size (model : model) =
  let tuple = random_edge rng universe_size in
  if Random.State.int rng 3 < 2 then Live.Db.Insert { rel = "E"; tuple }
  else
    let existing =
      match Hashtbl.find_opt model "E" with
      | Some (_, set) when Hashtbl.length set > 0 && Random.State.bool rng ->
          let picked = ref None and target = Random.State.int rng (Hashtbl.length set) in
          let i = ref 0 in
          Hashtbl.iter
            (fun t () ->
              if !i = target then picked := Some t;
              incr i)
            set;
          !picked
      | _ -> None
    in
    Live.Db.Delete
      { rel = "E"; tuple = Option.value existing ~default:tuple }

let seed_base rng ~universe_size ~edges (model : model) =
  for _ = 1 to edges do
    model_apply model
      (Live.Db.Insert { rel = "E"; tuple = random_edge rng universe_size })
  done;
  rebuild ~universe_size model

let apply_ok live ?id ops =
  match Live.Db.apply ?id live ops with
  | Ok applied -> applied
  | Error e -> Alcotest.failf "apply refused: %s" (Error.message e)

let run_on db ~seed ~jobs query_text =
  let query = Result.get_ok (Ecq.parse_result query_text) in
  match
    Api.run Api.Request.(make query db |> with_seed (Some seed) |> with_jobs (Some jobs))
  with
  | Ok r -> r
  | Error e -> Alcotest.failf "estimate failed: %s" (Error.message e)

let estimate_on db ~seed ~jobs query_text =
  (run_on db ~seed ~jobs query_text).Api.estimate

(* ---------- main+delta relation semantics ---------- *)

let test_relation_semantics () =
  let r =
    Live.Relation.of_sealed
      (Relation.of_list ~arity:2 [ [| 1; 2 |]; [| 3; 4 |] ])
  in
  Alcotest.(check int) "initial cardinality" 2 (Live.Relation.cardinality r);
  Alcotest.(check bool) "insert new" true (Live.Relation.insert r [| 5; 6 |]);
  Alcotest.(check bool) "insert duplicate of main is a no-op" false
    (Live.Relation.insert r [| 1; 2 |]);
  Alcotest.(check bool) "insert duplicate of delta is a no-op" false
    (Live.Relation.insert r [| 5; 6 |]);
  Alcotest.(check bool) "delete main row tombstones" true
    (Live.Relation.delete r [| 3; 4 |]);
  Alcotest.(check bool) "tombstoned row is gone" false
    (Live.Relation.mem r [| 3; 4 |]);
  Alcotest.(check bool) "delete absent row is a no-op" false
    (Live.Relation.delete r [| 9; 9 |]);
  Alcotest.(check int) "cardinality tracks" 2 (Live.Relation.cardinality r);
  (* delete of a delta insert cancels it instead of tombstoning *)
  Alcotest.(check bool) "delete delta insert" true
    (Live.Relation.delete r [| 5; 6 |]);
  (* re-inserting a tombstoned main row cancels the tombstone *)
  Alcotest.(check bool) "re-insert tombstoned" true
    (Live.Relation.insert r [| 3; 4 |]);
  Alcotest.(check (list (array int)))
    "view is the live set in ascending-lex order"
    [ [| 1; 2 |]; [| 3; 4 |] ]
    (Relation.to_list (Live.Relation.view r))

let test_view_matches_rebuild_and_merge () =
  let rng = Random.State.make [| 4711 |] in
  let live = Live.Relation.create ~arity:2 in
  let set = Hashtbl.create 64 in
  for _ = 1 to 300 do
    let tuple = random_edge rng 12 in
    if Random.State.int rng 3 < 2 then begin
      ignore (Live.Relation.insert live tuple);
      Hashtbl.replace set tuple ()
    end
    else begin
      ignore (Live.Relation.delete live tuple);
      Hashtbl.remove set tuple
    end
  done;
  let expected =
    Hashtbl.fold (fun t () acc -> t :: acc) set []
    |> List.sort compare
  in
  Alcotest.(check (list (array int)))
    "view = sorted live set" expected
    (Relation.to_list (Live.Relation.view live));
  let before = Relation.to_list (Live.Relation.view live) in
  let compacted = Live.Relation.merge live in
  Alcotest.(check bool) "something was compacted" true (compacted > 0);
  Alcotest.(check int) "delta empty after merge" 0
    (Live.Relation.delta_rows live);
  Alcotest.(check (list (array int)))
    "merge preserves the view" before
    (Relation.to_list (Live.Relation.view live))

(* merge is content-preserving for arbitrary op interleavings *)
let prop_merge_preserves_view =
  let gen =
    QCheck2.Gen.(
      list_size (int_range 1 120)
        (triple bool (int_range 0 7) (int_range 0 7)))
  in
  QCheck2.Test.make ~count:200 ~name:"merge preserves the live view" gen
    (fun ops ->
      let a = Live.Relation.create ~arity:2
      and b = Live.Relation.create ~arity:2 in
      List.iter
        (fun (ins, x, y) ->
          let t = [| x; y |] in
          if ins then begin
            ignore (Live.Relation.insert a t);
            ignore (Live.Relation.insert b t)
          end
          else begin
            ignore (Live.Relation.delete a t);
            ignore (Live.Relation.delete b t)
          end)
        ops;
      ignore (Live.Relation.merge b);
      Relation.to_list (Live.Relation.view a)
      = Relation.to_list (Live.Relation.view b)
      && Live.Relation.cardinality a = Live.Relation.cardinality b
      && Live.Relation.delta_rows b = 0)

(* ---------- the columnar view = a rebuilt sealed relation ----------

   [Live.Relation.view] merges main's columns with the sorted delta
   straight into new columns. Field by field — the columns, the CSR
   index over column 0 and every column's dictionary — it must equal
   [Relation.of_sorted] of the live set. *)

module Column = Ac_relational.Column

let sealed_fields r =
  match Relation.sealed_cols r with
  | None -> Alcotest.fail "view is not sealed"
  | Some c ->
      ( Array.map Column.to_array c.Relation.columns,
        c.Relation.rows,
        Column.to_array c.Relation.dict0,
        Column.to_array c.Relation.offsets0,
        Array.init (Relation.arity r) (fun j -> Column.to_array (Relation.dict r j)) )

(* The CSR index over column 0, read off the sorted rows directly. *)
let csr_of_rows rows =
  let n = Array.length rows in
  let starts =
    List.filter (fun i -> i = 0 || rows.(i).(0) <> rows.(i - 1).(0)) (List.init n Fun.id)
  in
  ( Array.of_list (List.map (fun i -> rows.(i).(0)) starts),
    Array.of_list (starts @ [ n ]) )

let view_matches_rebuild ~arity live set =
  let rows =
    Hashtbl.fold (fun t () acc -> t :: acc) set [] |> List.sort compare |> Array.of_list
  in
  let ((_, _, dict0, offsets0, _) as view) = sealed_fields (Live.Relation.view live) in
  view = sealed_fields (Relation.of_sorted ~arity rows)
  && (dict0, offsets0) = csr_of_rows rows

(* One op: insert, delete, or merge the delta into main. *)
let prop_view_columnar =
  let gen =
    QCheck2.Gen.(
      int_range 1 3 >>= fun arity ->
      int_range 1 5 >>= fun u ->
      pair (return arity)
        (list_size (int_range 0 80)
           (pair (int_range 0 9) (array_size (return arity) (int_range 0 (u - 1))))))
  in
  QCheck2.Test.make ~count:300 ~name:"columnar view = of_sorted of the live set"
    gen
    (fun (arity, ops) ->
      let live = Live.Relation.create ~arity and set = Hashtbl.create 16 in
      List.for_all
        (fun (kind, t) ->
          (if kind = 0 then ignore (Live.Relation.merge live)
           else if kind <= 6 then begin
             ignore (Live.Relation.insert live t);
             Hashtbl.replace set t ()
           end
           else begin
             ignore (Live.Relation.delete live t);
             Hashtbl.remove set t
           end);
          view_matches_rebuild ~arity live set)
        ops)

let test_view_columnar_edges () =
  let rng = Random.State.make [| 91 |] in
  List.iter
    (fun arity ->
      let tuple () = Array.init arity (fun _ -> Random.State.int rng 6) in
      let set = Hashtbl.create 64 in
      (* delta only, over an empty main *)
      let live = Live.Relation.create ~arity in
      Alcotest.(check bool) "empty main, empty delta" true
        (view_matches_rebuild ~arity live set);
      for _ = 1 to 40 do
        let t = tuple () in
        ignore (Live.Relation.insert live t);
        Hashtbl.replace set t ()
      done;
      Alcotest.(check bool) (Printf.sprintf "arity %d: delta only" arity) true
        (view_matches_rebuild ~arity live set);
      (* everything deleted: tombstones cover all of main *)
      ignore (Live.Relation.merge live);
      Hashtbl.iter (fun t () -> ignore (Live.Relation.delete live t)) set;
      Hashtbl.reset set;
      Alcotest.(check int) "all tombstoned" 0 (Live.Relation.cardinality live);
      Alcotest.(check bool) (Printf.sprintf "arity %d: all deleted" arity) true
        (view_matches_rebuild ~arity live set))
    [ 1; 2; 3 ]

(* The dictionaries: a presence pass over dense spans, a sort for
   negative values and wide spans — both give the sorted distinct
   values. *)
let prop_dicts =
  let value =
    QCheck2.Gen.(
      oneof
        [
          int_range 0 20;
          int_range (-50) 50;
          map (fun v -> v * 1_000_003) (int_range (-3) 40);
          int_range (-1000) 1_000_000_000;
        ])
  in
  QCheck2.Test.make ~count:300 ~name:"dictionaries = sorted distinct column values"
    QCheck2.Gen.(
      int_range 1 3 >>= fun arity ->
      pair (return arity) (list_size (int_range 0 60) (array_size (return arity) value)))
    (fun (arity, tuples) ->
      let r = Relation.of_list ~arity tuples in
      Relation.seal r;
      List.for_all
        (fun j ->
          Column.to_array (Relation.dict r j)
          = Array.of_list (List.sort_uniq compare (List.map (fun t -> t.(j)) tuples)))
        (List.init arity Fun.id))

(* [view ~budget] ticks once per 256 rows it writes. *)
let test_view_ticks () =
  List.iter
    (fun (main_rows, inserts, deletes) ->
      let main =
        Relation.of_sorted ~arity:2
          (Array.init main_rows (fun i -> [| i / 50; i mod 50 |]))
      in
      let live = Live.Relation.of_sealed main in
      for i = 0 to inserts - 1 do
        ignore (Live.Relation.insert live [| 1000 + (i / 50); i mod 50 |])
      done;
      for i = 0 to deletes - 1 do
        ignore (Live.Relation.delete live [| i / 50; i mod 50 |])
      done;
      let budget = Ac_runtime.Budget.create () in
      let rows = Relation.cardinality (Live.Relation.view ~budget live) in
      Alcotest.(check int)
        (Printf.sprintf "%d rows: one tick per 256" rows)
        (rows / 256)
        (Ac_runtime.Budget.ticks budget))
    [ (700, 300, 0); (600, 100, 444); (0, 255, 0); (256, 1, 1); (1000, 24, 0) ]

(* ---------- versions, fingerprints, exactly-once ---------- *)

let test_db_versioning_and_replay () =
  let model : model = Hashtbl.create 4 in
  let rng = Random.State.make [| 11 |] in
  let base = seed_base rng ~universe_size:10 ~edges:30 model in
  let live = Live.Db.of_structure base in
  Alcotest.(check int) "starts at version 0" 0 (Live.Db.version live);
  Alcotest.(check string) "starts at the content fingerprint"
    (Structure.fingerprint base)
    (Live.Db.fingerprint live);
  let fp0 = Live.Db.fingerprint live in
  let ops = [ Live.Db.Insert { rel = "E"; tuple = [| 0; 1 |] } ] in
  let a1 = apply_ok live ~id:"batch-1" ops in
  Alcotest.(check int) "version bumped" 1 a1.Live.Db.version;
  Alcotest.(check string) "fingerprint rolls deterministically"
    (Live.roll_fingerprint fp0 ops)
    a1.Live.Db.fingerprint;
  Alcotest.(check bool) "not a replay" false a1.Live.Db.replayed;
  (* the same batch id again: stored result, nothing changes *)
  let a2 = apply_ok live ~id:"batch-1" ops in
  Alcotest.(check bool) "replayed" true a2.Live.Db.replayed;
  Alcotest.(check int) "replay does not bump" 1 a2.Live.Db.version;
  Alcotest.(check string) "replay returns the stored fingerprint"
    a1.Live.Db.fingerprint a2.Live.Db.fingerprint;
  Alcotest.(check int) "db still at version 1" 1 (Live.Db.version live);
  (* a refused batch leaves everything untouched *)
  (match
     Live.Db.apply live
       [ Live.Db.Insert { rel = "E"; tuple = [| 999; 0 |] } ]
   with
  | Error (Error.Parse _) -> ()
  | Error e -> Alcotest.failf "wrong error class: %s" (Error.class_name e)
  | Ok _ -> Alcotest.fail "out-of-universe insert must be refused");
  Alcotest.(check int) "refused batch does not bump" 1 (Live.Db.version live)

(* ---------- the differential harness (ISSUE satellite 2) ---------- *)

let test_live_vs_rebuild_bit_identical () =
  let universe_size = 24 in
  let rng = Random.State.make [| 907 |] in
  let model : model = Hashtbl.create 4 in
  let base = seed_base rng ~universe_size ~edges:90 model in
  let live = Live.Db.of_structure base in
  let queries =
    [ "ans(x,y) :- E(x,y), x != y"; "ans(x,y) :- E(x,y), !E(y,x)" ]
  in
  for round = 1 to 6 do
    let ops =
      List.init 12 (fun _ -> random_op rng ~universe_size model)
    in
    List.iter (model_apply model) ops;
    ignore (apply_ok live ops);
    if round mod 3 = 0 then begin
      let snapshot = Live.Db.snapshot live in
      let rebuilt = rebuild ~universe_size model in
      Alcotest.(check string)
        (Printf.sprintf "round %d: snapshot = rebuild (fingerprint)" round)
        (Structure.fingerprint rebuilt)
        (Structure.fingerprint snapshot);
      List.iter
        (fun query ->
          List.iter
            (fun jobs ->
              let seed = 5000 + (100 * round) + jobs in
              let on_live = estimate_on snapshot ~seed ~jobs query
              and on_rebuilt = estimate_on rebuilt ~seed ~jobs query in
              Alcotest.(check bool)
                (Printf.sprintf
                   "round %d, jobs %d: live estimate bits = rebuild (%s)"
                   round jobs query)
                true
                (Int64.bits_of_float on_live
                = Int64.bits_of_float on_rebuilt))
            [ 1; 2; 4 ])
        queries
    end
  done;
  (* …and the same holds after compacting everything, down to the work
     done: a merged db must run exactly like one sealed from scratch *)
  ignore (Live.Db.merge live);
  Alcotest.(check int) "merge leaves no delta rows" 0 (Live.Db.delta_rows live);
  let rebuilt = rebuild ~universe_size model in
  let seed = 99 in
  List.iter
    (fun query ->
      let on_live = run_on (Live.Db.snapshot live) ~seed ~jobs:2 query
      and on_rebuilt = run_on rebuilt ~seed ~jobs:2 query in
      Alcotest.(check bool)
        (Printf.sprintf "post-merge estimate bits = rebuild (%s)" query)
        true
        (Int64.bits_of_float on_live.Api.estimate
        = Int64.bits_of_float on_rebuilt.Api.estimate);
      Alcotest.(check int)
        (Printf.sprintf "post-merge ticks = rebuild (%s)" query)
        on_rebuilt.Api.telemetry.Api.ticks on_live.Api.telemetry.Api.ticks)
    queries

(* ---------- the delta journal ---------- *)

let temp_journal () =
  let path = Filename.temp_file "acq_live_journal" ".jsonl" in
  Sys.remove path;
  path

let sample_lines =
  [
    {
      Journal.seq = 1;
      id = Some "b1";
      fingerprint = "f1";
      ops = [ Live.Db.Insert { rel = "E"; tuple = [| 1; 2 |] } ];
    };
    {
      Journal.seq = 2;
      id = None;
      fingerprint = "f2";
      ops =
        [
          Live.Db.Delete { rel = "E"; tuple = [| 1; 2 |] };
          Live.Db.Insert { rel = "F"; tuple = [| 0; 0; 3 |] };
        ];
    };
  ]

let test_journal_roundtrip () =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Alcotest.(check bool) "absent journal replays empty" true
        (Journal.replay path = Ok []);
      List.iter
        (fun l -> Result.get_ok (Journal.append path l))
        sample_lines;
      (match Journal.replay path with
      | Ok lines ->
          Alcotest.(check bool) "lines round-trip" true (lines = sample_lines)
      | Error e -> Alcotest.failf "replay failed: %s" (Error.message e));
      Result.get_ok (Journal.reset path);
      Alcotest.(check bool) "reset empties" true (Journal.replay path = Ok []))

let test_journal_torn_tail_and_corruption () =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      List.iter
        (fun l -> Result.get_ok (Journal.append path l))
        sample_lines;
      (* a crash mid-append leaves a torn, unterminated tail: dropped *)
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc "{\"seq\":3,\"fingerprint\":\"f3\",\"ops\":[{\"op\"";
      close_out oc;
      (match Journal.replay path with
      | Ok lines ->
          Alcotest.(check int) "torn tail dropped, committed lines kept" 2
            (List.length lines)
      | Error e -> Alcotest.failf "torn tail must not refuse: %s" (Error.message e));
      (* garbage in the middle is corruption, not a torn write: refuse *)
      let oc = open_out path in
      output_string oc "not json at all\n";
      close_out oc;
      List.iter
        (fun l -> Result.get_ok (Journal.append path l))
        sample_lines;
      match Journal.replay path with
      | Error (Error.Parse _) -> ()
      | Error e -> Alcotest.failf "wrong class: %s" (Error.class_name e)
      | Ok _ -> Alcotest.fail "mid-file corruption must refuse")

let test_journal_truncate () =
  let path = temp_journal () in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let line seq =
        {
          Journal.seq;
          id = Some (Printf.sprintf "b%d" seq);
          fingerprint = Printf.sprintf "f%d" seq;
          ops = [ Live.Db.Insert { rel = "E"; tuple = [| seq; seq |] } ];
        }
      in
      List.iter
        (fun l -> Result.get_ok (Journal.append path l))
        [ line 1; line 2; line 3 ];
      (* a merge compacted versions <= 2: their lines are dead weight,
         but a batch journaled past the compacted version must survive *)
      Result.get_ok (Journal.truncate path ~upto:2);
      (match Journal.replay path with
      | Ok [ l ] ->
          Alcotest.(check int) "the un-compacted line survives" 3 l.Journal.seq
      | Ok lines ->
          Alcotest.failf "kept %d lines, wanted exactly seq 3"
            (List.length lines)
      | Error e -> Alcotest.failf "replay failed: %s" (Error.message e));
      Result.get_ok (Journal.truncate path ~upto:3);
      Alcotest.(check bool) "truncating past the last line empties" true
        (Journal.replay path = Ok []))

(* ---------- apply/journal atomicity ---------- *)

(* A failed journal hook must roll the whole batch back — relations
   (including a freshly declared one), version, fingerprint, and the
   idempotency table. An applied-but-unjournaled batch would leave a
   gap in the fingerprint chain that every later recovery trips
   over. *)
let test_apply_journal_rollback () =
  let s = Structure.create ~universe_size:8 in
  Structure.declare s "E" ~arity:2;
  Structure.add_fact s "E" [| 0; 1 |];
  Structure.add_fact s "E" [| 1; 2 |];
  let base = Structure.seal s in
  let live = Live.Db.of_structure base in
  let v0 = Live.Db.version live and f0 = Live.Db.fingerprint live in
  let ops =
    [
      Live.Db.Insert { rel = "E"; tuple = [| 3; 4 |] };
      Live.Db.Delete { rel = "E"; tuple = [| 0; 1 |] };
      Live.Db.Insert { rel = "N"; tuple = [| 1; 2; 3 |] };
    ]
  in
  let seen = ref None in
  (match
     Live.Db.apply ~id:"atomic-1"
       ~journal:(fun applied ->
         seen := Some applied;
         Error (Error.Io { file = "journal"; msg = "disk full" }))
       live ops
   with
  | Error (Error.Io { msg; _ }) ->
      Alcotest.(check string) "the hook's error surfaces" "disk full" msg
  | Error e -> Alcotest.failf "wrong error class: %s" (Error.class_name e)
  | Ok _ -> Alcotest.fail "a failed journal hook must refuse the batch");
  (* the hook ran inside the critical section, seeing the post-batch
     version/fingerprint… *)
  (match !seen with
  | Some applied ->
      Alcotest.(check int) "hook saw the post-batch version" (v0 + 1)
        applied.Live.Db.version
  | None -> Alcotest.fail "journal hook never ran");
  (* …but the failure rolled everything back *)
  Alcotest.(check int) "version rolled back" v0 (Live.Db.version live);
  Alcotest.(check string) "fingerprint rolled back" f0
    (Live.Db.fingerprint live);
  Alcotest.(check int) "delta rolled back" 0 (Live.Db.delta_rows live);
  Alcotest.(check (list string)) "declared relation rolled back" [ "E" ]
    (Live.Db.symbols live);
  Alcotest.(check string) "snapshot is the untouched base"
    (Structure.fingerprint base)
    (Structure.fingerprint (Live.Db.snapshot live));
  (* the batch id was NOT registered: a retry applies for real instead
     of being answered replayed=true for a batch that never journaled *)
  match Live.Db.apply ~id:"atomic-1" live ops with
  | Ok applied ->
      Alcotest.(check bool) "retry applies fresh, not as a replay" false
        applied.Live.Db.replayed;
      Alcotest.(check int) "retry lands at the next version" (v0 + 1)
        applied.Live.Db.version
  | Error e -> Alcotest.failf "retry refused: %s" (Error.message e)

let test_record_batch_replays () =
  let live = Live.Db.of_structure (rebuild ~universe_size:4 (Hashtbl.create 1)) in
  let recorded =
    {
      Live.Db.version = 5;
      fingerprint = "ff";
      inserted = 0;
      deleted = 0;
      replayed = false;
    }
  in
  Live.Db.record_batch live ~id:"compacted-1" recorded;
  (* registering again must not overwrite the first record *)
  Live.Db.record_batch live ~id:"compacted-1"
    { recorded with Live.Db.version = 9 };
  (match
     Live.Db.apply ~id:"compacted-1" live
       [ Live.Db.Insert { rel = "E"; tuple = [| 1; 1 |] } ]
   with
  | Ok applied ->
      Alcotest.(check bool) "pre-registered id replays" true
        applied.Live.Db.replayed;
      Alcotest.(check int) "…at the recorded version" 5
        applied.Live.Db.version;
      Alcotest.(check string) "…and fingerprint" "ff"
        applied.Live.Db.fingerprint
  | Error e -> Alcotest.failf "apply refused: %s" (Error.message e));
  Alcotest.(check int) "nothing was applied" 0 (Live.Db.version live)

(* ---------- catalog statistics after mutation (satellite 1) ---------- *)

let test_catalog_stats_track_mutation () =
  let model : model = Hashtbl.create 4 in
  let rng = Random.State.make [| 23 |] in
  let base = seed_base rng ~universe_size:16 ~edges:40 model in
  let catalog = Catalog.create () in
  let e0 = Catalog.add catalog ~name:"g" base in
  Alcotest.(check int) "entry starts at version 0" 0 e0.Catalog.version;
  let live = Option.get (Catalog.live_find catalog "g") in
  (* two fresh edges into E, a brand-new relation N *)
  let stats_of_rel entry symbol =
    List.find
      (fun (s : Catalog.relation_stats) -> s.Catalog.symbol = symbol)
      entry.Catalog.relations
  in
  let e_cardinality = (stats_of_rel e0 "E").Catalog.cardinality in
  ignore
    (apply_ok live
       [
         Live.Db.Insert { rel = "E"; tuple = [| 15; 14 |] };
         Live.Db.Insert { rel = "E"; tuple = [| 14; 15 |] };
         Live.Db.Insert { rel = "N"; tuple = [| 1; 2; 3 |] };
       ]);
  let e1 = Option.get (Catalog.find catalog "g") in
  Alcotest.(check int) "entry rematerialized at version 1" 1
    e1.Catalog.version;
  Alcotest.(check bool) "fingerprint moved" true
    (e1.Catalog.fingerprint <> e0.Catalog.fingerprint);
  (* ‖A‖ = #relations + universe + Σ arity·cardinality: two fresh
     arity-2 rows (+4), one new relation (+1) with one arity-3 row (+3) *)
  Alcotest.(check int) "size counts main+delta" (e0.Catalog.size + 8)
    e1.Catalog.size;
  Alcotest.(check int) "E stats recomputed over main+delta"
    (e_cardinality + 2)
    (stats_of_rel e1 "E").Catalog.cardinality;
  Alcotest.(check int) "declared relation appears with its stats" 1
    (stats_of_rel e1 "N").Catalog.cardinality;
  Alcotest.(check int) "…at the declared arity" 3
    (stats_of_rel e1 "N").Catalog.arity;
  (* same version queried again: the memoized entry comes back *)
  let e1' = Option.get (Catalog.find catalog "g") in
  Alcotest.(check bool) "entry memoized per version" true (e1 == e1')

(* ---------- an in-process daemon over socketpair ---------- *)

type client = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
  thread : Thread.t;
}

let connect server =
  let client_fd, server_fd =
    Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0
  in
  let thread =
    Thread.create (fun () -> Server.serve_connection server server_fd) ()
  in
  {
    fd = client_fd;
    ic = Unix.in_channel_of_descr client_fd;
    oc = Unix.out_channel_of_descr client_fd;
    thread;
  }

let call client req =
  Wire.write_json client.oc (Wire.request_to_json req);
  match Wire.read_json client.ic with
  | Wire.Msg j -> (
      match Wire.response_of_json j with
      | Ok r -> r
      | Error msg -> Alcotest.failf "bad response: %s" msg)
  | Wire.Eof -> Alcotest.fail "server hung up"
  | Wire.Bad msg -> Alcotest.failf "unparseable response: %s" msg

let disconnect client =
  (try Unix.shutdown client.fd Unix.SHUTDOWN_ALL
   with Unix.Unix_error _ -> ());
  Thread.join client.thread;
  try Unix.close client.fd with Unix.Unix_error _ -> ()

let expect_counted = function
  | Wire.Counted o -> o
  | Wire.Refused { error_class; message; _ } ->
      Alcotest.failf "refused [%s]: %s" error_class message
  | _ -> Alcotest.fail "expected a COUNT response"

type mutated = {
  mu_version : int;
  mu_inserted : int;
  mu_replayed : bool;
}

let expect_mutated = function
  | Wire.Mutated { db_version; inserted; replayed; _ } ->
      { mu_version = db_version; mu_inserted = inserted; mu_replayed = replayed }
  | Wire.Refused { error_class; message; _ } ->
      Alcotest.failf "refused [%s]: %s" error_class message
  | _ -> Alcotest.fail "expected a MUTATE response"

let cache_counter server name field =
  match
    Option.bind (Json.mem name (Server.stats_json server)) (Json.mem field)
  with
  | Some (Json.Int v) -> v
  | _ -> Alcotest.failf "stats_json lacks %s.%s" name field

let with_live_server f =
  let model : model = Hashtbl.create 4 in
  let rng = Random.State.make [| 2022 |] in
  let base = seed_base rng ~universe_size:24 ~edges:110 model in
  let server = Server.create () in
  ignore (Catalog.add (Server.catalog server) ~name:"g" base);
  let client = connect server in
  Fun.protect
    ~finally:(fun () -> disconnect client)
    (fun () -> f server client)

(* ---------- version-precise invalidation (satellite 3) ---------- *)

let test_cache_invalidation_is_version_precise () =
  with_live_server (fun server client ->
      ignore (call client (Wire.Use "g"));
      let query = "ans(x,y) :- E(x,y), x != y" in
      let params = Wire.params ~seed:41 ~db:Wire.Session query in
      let cold = expect_counted (call client (Wire.Count params)) in
      Alcotest.(check string) "cold misses" "miss" cold.Wire.result_cache;
      let hot = expect_counted (call client (Wire.Count params)) in
      Alcotest.(check string) "same version hits" "hit" hot.Wire.result_cache;
      Alcotest.(check int) "a hit does no work" 0 hot.Wire.ticks;
      (* one INSERT: version 0 → 1, fingerprint rolls *)
      let m =
        expect_mutated
          (call client
             (Wire.Insert
                {
                  db = Wire.Session;
                  rel = "E";
                  tuples = [ [| 23; 22 |] ];
                  batch_id = Some "inv-1";
                }))
      in
      Alcotest.(check int) "version bumped over the wire" 1 m.mu_version;
      Alcotest.(check int) "one row inserted" 1 m.mu_inserted;
      (* the same request now misses — the old entry is unreachable,
         not merely stale *)
      let after = expect_counted (call client (Wire.Count params)) in
      Alcotest.(check string) "mutation invalidates" "miss"
        after.Wire.result_cache;
      Alcotest.(check bool) "post-mutation answer recomputed" true
        (after.Wire.ticks > 0);
      Alcotest.(check string) "…and the plan too (db-aware lints)" "miss"
        after.Wire.plan_cache;
      (* same version again: hits again — invalidation is precise, not
         a flush-on-write *)
      let again = expect_counted (call client (Wire.Count params)) in
      Alcotest.(check string) "new version hits at its own key" "hit"
        again.Wire.result_cache;
      Alcotest.(check int) "exact result-cache counters: 2 hits" 2
        (cache_counter server "result_cache" "hits");
      Alcotest.(check int) "exact result-cache counters: 2 misses" 2
        (cache_counter server "result_cache" "misses");
      (* replaying the batch id does not bump the version again, so
         cached entries for version 1 survive the retry *)
      let replay =
        expect_mutated
          (call client
             (Wire.Insert
                {
                  db = Wire.Session;
                  rel = "E";
                  tuples = [ [| 23; 22 |] ];
                  batch_id = Some "inv-1";
                }))
      in
      Alcotest.(check bool) "retry replays" true replay.mu_replayed;
      Alcotest.(check int) "retry leaves the version alone" 1
        replay.mu_version;
      let still = expect_counted (call client (Wire.Count params)) in
      Alcotest.(check string) "cache survives an idempotent retry" "hit"
        still.Wire.result_cache)

let test_db_key_distinctness () =
  let keys =
    [
      Cache.db_key ~fingerprint:"abc" ~version:0;
      Cache.db_key ~fingerprint:"abc" ~version:1;
      Cache.db_key ~fingerprint:"abd" ~version:1;
    ]
  in
  Alcotest.(check int) "distinct (fingerprint, version) → distinct keys" 3
    (List.length (List.sort_uniq compare keys))

(* ---------- counters stay exact under concurrent writers ---------- *)

let test_counters_under_concurrent_writers () =
  with_live_server (fun server client ->
      ignore (call client (Wire.Use "g"));
      let n_writers = 3 and batches_each = 8 in
      let m_batches =
        Metrics.counter Metrics.global "acq_live_batches_total"
      in
      let batches0 = Metrics.counter_value m_batches in
      let failures = Atomic.make 0 in
      let writer wi =
        let c = connect server in
        Fun.protect ~finally:(fun () -> disconnect c) (fun () ->
            for b = 0 to batches_each - 1 do
              let m =
                expect_mutated
                  (call c
                     (Wire.Insert
                        {
                          db = Wire.Named "g";
                          rel = "W";
                          tuples = [ [| wi; b |] ];
                          batch_id = Some (Printf.sprintf "w%d-%d" wi b);
                        }))
              in
              if m.mu_replayed then Atomic.incr failures
            done)
      in
      let reader ri =
        let c = connect server in
        Fun.protect ~finally:(fun () -> disconnect c) (fun () ->
            for r = 0 to 5 do
              let o =
                expect_counted
                  (call c
                     (Wire.Count
                        (Wire.params
                           ~seed:(1000 + (10 * ri) + r)
                           ~db:(Wire.Named "g") "ans(x,y) :- E(x,y)")))
              in
              (* values legitimately drift as writers land; the answers
                 must stay well-formed and every lookup accounted *)
              if Float.is_nan o.Wire.estimate then Atomic.incr failures
            done)
      in
      let threads =
        List.init n_writers (fun wi -> Thread.create writer wi)
        @ List.init 2 (fun ri -> Thread.create reader ri)
      in
      List.iter Thread.join threads;
      Alcotest.(check int) "no replays, no NaNs" 0 (Atomic.get failures);
      let live = Option.get (Catalog.live_find (Server.catalog server) "g") in
      Alcotest.(check int)
        "every batch bumped the version exactly once"
        (n_writers * batches_each)
        (Live.Db.version live);
      Alcotest.(check int) "acq_live_batches_total is exact"
        (n_writers * batches_each)
        (Metrics.counter_value m_batches - batches0);
      let hits = cache_counter server "result_cache" "hits"
      and misses = cache_counter server "result_cache" "misses" in
      Alcotest.(check int)
        "every seeded COUNT was a result-cache hit or miss" (2 * 6)
        (hits + misses);
      (* the catalog view converged: entry version = live version *)
      let entry = Option.get (Catalog.find (Server.catalog server) "g") in
      Alcotest.(check int) "entry converged to the final version"
        (Live.Db.version live) entry.Catalog.version)

(* ---------- mutation refusals ---------- *)

let test_mutation_refusals () =
  with_live_server (fun _server client ->
      (* inline databases cannot be mutated *)
      (match
         call client
           (Wire.Insert
              {
                db = Wire.Inline "universe 2\nE 0 1\n";
                rel = "E";
                tuples = [ [| 0; 0 |] ];
                batch_id = None;
              })
       with
      | Wire.Refused { error_class; _ } ->
          Alcotest.(check string) "inline refused as parse" "parse"
            error_class
      | _ -> Alcotest.fail "inline mutation must be refused");
      (* no session database selected *)
      (match
         call client
           (Wire.Insert
              {
                db = Wire.Session;
                rel = "E";
                tuples = [ [| 0; 0 |] ];
                batch_id = None;
              })
       with
      | Wire.Refused { error_class; _ } ->
          Alcotest.(check string) "no USE refused as io" "io" error_class
      | _ -> Alcotest.fail "mutation without USE must be refused");
      (* unknown named database *)
      (match
         call client
           (Wire.Delete
              {
                db = Wire.Named "nope";
                rel = "E";
                tuples = [ [| 0; 0 |] ];
                batch_id = None;
              })
       with
      | Wire.Refused { error_class; _ } ->
          Alcotest.(check string) "unknown db refused as io" "io" error_class
      | _ -> Alcotest.fail "unknown database must be refused");
      (* an invalid op inside a batch refuses atomically *)
      ignore (call client (Wire.Use "g"));
      match
        call client
          (Wire.Load_batch
             {
               db = Wire.Session;
               ops =
                 [
                   Live.Db.Insert { rel = "E"; tuple = [| 0; 1 |] };
                   Live.Db.Insert { rel = "E"; tuple = [| 999; 1 |] };
                 ];
               batch_id = None;
             })
      with
      | Wire.Refused { error_class; _ } ->
          Alcotest.(check string) "atomic refusal" "parse" error_class
      | _ -> Alcotest.fail "out-of-universe batch must be refused")

(* ---------- wire round-trips for the new verbs ---------- *)

let test_wire_mutation_roundtrip () =
  let roundtrip req =
    match Wire.request_of_json (Wire.request_to_json req) with
    | Ok req' -> req' = req
    | Error msg -> Alcotest.failf "request did not round-trip: %s" msg
  in
  List.iter
    (fun req ->
      Alcotest.(check bool) "mutation request round-trips" true
        (roundtrip req))
    [
      Wire.Insert
        {
          db = Wire.Named "g";
          rel = "E";
          tuples = [ [| 1; 2 |]; [| 3; 4 |] ];
          batch_id = Some "b";
        };
      Wire.Delete
        { db = Wire.Session; rel = "E"; tuples = [ [| 1; 2 |] ]; batch_id = None };
      Wire.Load_batch
        {
          db = Wire.Named "g";
          ops =
            [
              Live.Db.Insert { rel = "E"; tuple = [| 1; 2 |] };
              Live.Db.Delete { rel = "F"; tuple = [| 7 |] };
            ];
          batch_id = Some "b2";
        };
    ];
  let resp =
    Wire.Mutated
      {
        name = "g";
        db_version = 7;
        fingerprint = "fp";
        inserted = 3;
        deleted = 1;
        replayed = false;
      }
  in
  match Wire.response_of_json (Wire.response_to_json resp) with
  | Ok resp' ->
      Alcotest.(check bool) "mutated response round-trips" true (resp' = resp)
  | Error msg -> Alcotest.failf "response did not round-trip: %s" msg

let tests =
  [
    Alcotest.test_case "relation: main+delta semantics" `Quick
      test_relation_semantics;
    Alcotest.test_case "relation: view = rebuild, merge compacts" `Quick
      test_view_matches_rebuild_and_merge;
    QCheck_alcotest.to_alcotest prop_merge_preserves_view;
    QCheck_alcotest.to_alcotest prop_view_columnar;
    Alcotest.test_case "columnar view: empty main, all deleted" `Quick
      test_view_columnar_edges;
    QCheck_alcotest.to_alcotest prop_dicts;
    Alcotest.test_case "view ticks once per 256 rows" `Quick test_view_ticks;
    Alcotest.test_case "db: versions, fingerprints, exactly-once" `Quick
      test_db_versioning_and_replay;
    Alcotest.test_case "differential: live vs rebuild, bit-identical" `Slow
      test_live_vs_rebuild_bit_identical;
    Alcotest.test_case "journal: round-trip and reset" `Quick
      test_journal_roundtrip;
    Alcotest.test_case "journal: torn tail vs corruption" `Quick
      test_journal_torn_tail_and_corruption;
    Alcotest.test_case "journal: truncate keeps post-merge batches" `Quick
      test_journal_truncate;
    Alcotest.test_case "apply: failed journal hook rolls back" `Quick
      test_apply_journal_rollback;
    Alcotest.test_case "record_batch: compacted ids replay" `Quick
      test_record_batch_replays;
    Alcotest.test_case "catalog: stats follow mutation" `Quick
      test_catalog_stats_track_mutation;
    Alcotest.test_case "cache: version-precise invalidation" `Slow
      test_cache_invalidation_is_version_precise;
    Alcotest.test_case "cache: db_key distinctness" `Quick
      test_db_key_distinctness;
    Alcotest.test_case "counters exact under concurrent writers" `Slow
      test_counters_under_concurrent_writers;
    Alcotest.test_case "mutations: typed refusals" `Quick
      test_mutation_refusals;
    Alcotest.test_case "wire: mutation verbs round-trip" `Quick
      test_wire_mutation_roundtrip;
  ]
