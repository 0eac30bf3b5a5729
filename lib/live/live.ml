module R = Ac_relational.Relation
module Tuple = Ac_relational.Tuple
module Structure = Ac_relational.Structure
module Budget = Ac_runtime.Budget
module Error = Ac_runtime.Error
module Metrics = Ac_obs.Metrics

let m_merge_total =
  lazy
    (Metrics.counter Metrics.global "acq_live_merge_total"
       ~help:"Delta-into-main merge compactions performed")

let m_merge_rows =
  lazy
    (Metrics.counter Metrics.global "acq_live_merge_rows_total"
       ~help:"Delta rows (inserts + tombstones) compacted by merges")

let m_merge_duration =
  lazy
    (Metrics.histogram Metrics.global "acq_live_merge_duration_ms"
       ~help:"Merge compaction pause (milliseconds)")

module Relation = struct
  (* The main+delta layout. [main] is an immutable sealed relation (the
     columnar segment queries scan); [inserts] holds tuples present in
     the live set but not in main; [deletes] holds tombstones — tuples
     of main that the live set no longer contains. The invariants

       inserts ∩ main = ∅        deletes ⊆ main        inserts ∩ deletes = ∅

     make the live set exactly (main \ deletes) ∪ inserts and keep the
     view merge collision-free. *)
  type t = {
    arity : int;
    mutable main : R.t;
    inserts : unit Tuple.Table.t;
    deletes : unit Tuple.Table.t;
    mutable rev : int;  (* bumped on every delta change *)
    mutable view : (int * R.t) option;  (* memo keyed by [rev] *)
  }

  let of_sealed rel =
    R.seal rel;
    {
      arity = R.arity rel;
      main = rel;
      inserts = Tuple.Table.create 16;
      deletes = Tuple.Table.create 16;
      rev = 0;
      view = None;
    }

  let create ~arity = of_sealed (R.of_sorted ~arity [||])
  let arity t = t.arity
  let main_rows t = R.cardinality t.main

  let delta_rows t = Tuple.Table.length t.inserts + Tuple.Table.length t.deletes

  let cardinality t =
    R.cardinality t.main
    - Tuple.Table.length t.deletes
    + Tuple.Table.length t.inserts

  let mem t tuple =
    Tuple.Table.mem t.inserts tuple
    || (R.mem t.main tuple && not (Tuple.Table.mem t.deletes tuple))

  let touch t =
    t.rev <- t.rev + 1;
    t.view <- None

  (* Both mutators return whether the live set changed — a repeated
     insert or a delete of an absent tuple is a counted no-op, exactly
     like [Relation.add]'s duplicate rule. *)
  let insert t tuple =
    if Array.length tuple <> t.arity then
      invalid_arg "Live.Relation.insert: tuple length does not match arity";
    if Tuple.Table.mem t.deletes tuple then begin
      Tuple.Table.remove t.deletes tuple;
      touch t;
      true
    end
    else if R.mem t.main tuple || Tuple.Table.mem t.inserts tuple then false
    else begin
      Tuple.Table.replace t.inserts tuple ();
      touch t;
      true
    end

  let delete t tuple =
    if Array.length tuple <> t.arity then
      invalid_arg "Live.Relation.delete: tuple length does not match arity";
    if Tuple.Table.mem t.inserts tuple then begin
      Tuple.Table.remove t.inserts tuple;
      touch t;
      true
    end
    else if R.mem t.main tuple && not (Tuple.Table.mem t.deletes tuple) then begin
      Tuple.Table.replace t.deletes tuple ();
      touch t;
      true
    end
    else false

  (* The pinned-order contract: the view enumerates in ascending
     lexicographic order — bit-identical to a freshly rebuilt sealed
     relation holding the same live set — by one linear merge of main's
     columns with the sorted insert run, dropping the sorted tombstones.
     The delta invariants guarantee the merge never sees equal keys, so
     no dedup pass is needed. A budget is polled every 256 rows: cheap
     enough to be invisible, frequent enough that a deadline interrupts
     a merge of any realistic size promptly. *)
  let build_view ?budget t =
    let tick =
      Option.map (fun b () -> Budget.tick b; Budget.check b) budget
    in
    R.of_merge ?tick ~main:t.main ~inserts:(Tuple.sorted_keys t.inserts)
      ~deletes:(Tuple.sorted_keys t.deletes) ()

  let view ?budget t =
    if delta_rows t = 0 then t.main
    else
      match t.view with
      | Some (rev, v) when rev = t.rev -> v
      | _ ->
          let v = build_view ?budget t in
          t.view <- Some (t.rev, v);
          v

  let merge ?budget t =
    let compacted = delta_rows t in
    if compacted > 0 then begin
      let v = view ?budget t in
      t.main <- v;
      Tuple.Table.reset t.inserts;
      Tuple.Table.reset t.deletes;
      t.view <- Some (t.rev, v)
    end;
    compacted
end

(* ---------- versioned databases ---------- *)

type op =
  | Insert of { rel : string; tuple : int array }
  | Delete of { rel : string; tuple : int array }

let op_rel = function Insert { rel; _ } | Delete { rel; _ } -> rel
let op_tuple = function Insert { tuple; _ } | Delete { tuple; _ } -> tuple

(* The canonical batch rendering the rolling fingerprint digests: the
   operations in application order, nothing else. Two batches roll the
   fingerprint identically iff they perform the same edits in the same
   order — which is exactly when replaying one for the other is
   sound. *)
let ops_to_string ops =
  let buf = Buffer.create 64 in
  List.iter
    (fun o ->
      Buffer.add_char buf (match o with Insert _ -> '+' | Delete _ -> '-');
      Buffer.add_string buf (op_rel o);
      Buffer.add_char buf '(';
      Array.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_string buf (string_of_int v))
        (op_tuple o);
      Buffer.add_string buf ");")
    ops;
  Buffer.contents buf

let roll_fingerprint fp ops =
  Digest.to_hex (Digest.string (fp ^ "|" ^ ops_to_string ops))

type applied = {
  version : int;
  fingerprint : string;
  inserted : int;
  deleted : int;
  replayed : bool;
}

module Db = struct
  type nonrec op = op =
    | Insert of { rel : string; tuple : int array }
    | Delete of { rel : string; tuple : int array }

  type nonrec applied = applied = {
    version : int;
    fingerprint : string;
    inserted : int;
    deleted : int;
    replayed : bool;
  }

  type t = {
    universe_size : int;
    relations : (string, Relation.t) Hashtbl.t;
    mutable version : int;
    mutable fingerprint : string;
    mutable snapshot_memo : (int * Structure.t) option;
    batches : (string, applied) Hashtbl.t;  (* idempotency: batch id → result *)
    mutex : Mutex.t;
  }

  let of_structure ?(version = 0) ?fingerprint base =
    let base = Structure.seal base in
    let fingerprint =
      match fingerprint with
      | Some fp -> fp
      | None -> Structure.fingerprint base
    in
    let relations = Hashtbl.create 16 in
    List.iter
      (fun name ->
        Hashtbl.replace relations name
          (Relation.of_sealed (Structure.relation base name)))
      (Structure.symbols base);
    {
      universe_size = Structure.universe_size base;
      relations;
      version;
      fingerprint;
      (* at its creation version the snapshot IS the base — queries on
         an unmutated db share the original sealed columns at no cost *)
      snapshot_memo = Some (version, base);
      batches = Hashtbl.create 16;
      mutex = Mutex.create ();
    }

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let universe_size t = t.universe_size
  let version t = locked t (fun () -> t.version)
  let fingerprint t = locked t (fun () -> t.fingerprint)

  let delta_rows t =
    locked t (fun () ->
        Hashtbl.fold (fun _ rl acc -> acc + Relation.delta_rows rl) t.relations 0)

  let main_rows t =
    locked t (fun () ->
        Hashtbl.fold (fun _ rl acc -> acc + Relation.main_rows rl) t.relations 0)

  (* Batches are atomic: every operation is validated against the
     universe and the (evolving) signature before any is applied, so a
     refused batch leaves the database untouched. *)
  let validate t ops =
    let declared = Hashtbl.create 4 in
    let arity_of rel =
      match Hashtbl.find_opt t.relations rel with
      | Some rl -> Some (Relation.arity rl)
      | None -> Hashtbl.find_opt declared rel
    in
    let rec go = function
      | [] -> Ok ()
      | o :: rest -> (
          let rel = op_rel o and tuple = op_tuple o in
          if Array.length tuple = 0 then
            Error
              (Printf.sprintf "operation on %s: empty tuple (arity must be \
                               positive)" rel)
          else
            match
              Array.find_opt
                (fun v -> v < 0 || v >= t.universe_size)
                tuple
            with
            | Some v ->
                Error
                  (Printf.sprintf
                     "operation on %s: element %d outside universe of size %d"
                     rel v t.universe_size)
            | None -> (
                match arity_of rel with
                | Some a when a <> Array.length tuple ->
                    Error
                      (Printf.sprintf
                         "operation on %s: tuple has length %d but the \
                          relation has arity %d"
                         rel (Array.length tuple) a)
                | Some _ -> go rest
                | None ->
                    (* first touch declares, like Structure.add_fact;
                       a delete of an unknown symbol is a no-op but
                       still pins the arity for the rest of the batch *)
                    Hashtbl.replace declared rel (Array.length tuple);
                    go rest))
    in
    go ops

  (* Each state change pushes its exact inverse onto [undo] (most
     recent first), so running the list front-to-back restores the
     relations to their pre-batch live set. *)
  let apply_op t counts undo o =
    let rel = op_rel o in
    let rl =
      match Hashtbl.find_opt t.relations rel with
      | Some rl -> Some rl
      | None -> (
          match o with
          | Insert { tuple; _ } ->
              let rl = Relation.create ~arity:(Array.length tuple) in
              Hashtbl.replace t.relations rel rl;
              undo := (fun () -> Hashtbl.remove t.relations rel) :: !undo;
              Some rl
          | Delete _ -> None (* deleting from an absent relation: no-op *))
    in
    match (o, rl) with
    | _, None -> ()
    | Insert { tuple; _ }, Some rl ->
        if Relation.insert rl tuple then begin
          counts := (fst !counts + 1, snd !counts);
          undo := (fun () -> ignore (Relation.delete rl tuple)) :: !undo
        end
    | Delete { tuple; _ }, Some rl ->
        if Relation.delete rl tuple then begin
          counts := (fst !counts, snd !counts + 1);
          undo := (fun () -> ignore (Relation.insert rl tuple)) :: !undo
        end

  let apply ?id ?(journal = fun _ -> Ok ()) t ops =
    locked t (fun () ->
        match Option.bind id (Hashtbl.find_opt t.batches) with
        | Some prior -> Ok { prior with replayed = true }
        | None -> (
            match validate t ops with
            | Error msg -> Error (Error.Parse { source = "mutation"; msg })
            | Ok () ->
                let counts = ref (0, 0) in
                let undo = ref [] in
                let prior_version = t.version
                and prior_fingerprint = t.fingerprint
                and prior_memo = t.snapshot_memo in
                List.iter (apply_op t counts undo) ops;
                t.version <- t.version + 1;
                t.fingerprint <- roll_fingerprint t.fingerprint ops;
                t.snapshot_memo <- None;
                let inserted, deleted = !counts in
                let result =
                  {
                    version = t.version;
                    fingerprint = t.fingerprint;
                    inserted;
                    deleted;
                    replayed = false;
                  }
                in
                (* [journal] runs inside the critical section, after the
                   state moved but before the idempotency record exists:
                   because the mutex spans both, journal entries are
                   written in version order, and a failed append rolls
                   the whole batch back — the db is applied-and-durable
                   or untouched, never applied-but-unjournaled (which
                   would leave an unrecoverable gap in the fingerprint
                   chain). *)
                match journal result with
                | Error e ->
                    List.iter (fun f -> f ()) !undo;
                    t.version <- prior_version;
                    t.fingerprint <- prior_fingerprint;
                    t.snapshot_memo <- prior_memo;
                    Error e
                | Ok () ->
                    Option.iter
                      (fun id -> Hashtbl.replace t.batches id result)
                      id;
                    Ok result))

  let record_batch t ~id result =
    locked t (fun () ->
        if not (Hashtbl.mem t.batches id) then
          Hashtbl.replace t.batches id result)

  let exclusively t f = locked t f

  let symbols_unlocked t =
    Hashtbl.fold (fun name _ acc -> name :: acc) t.relations []
    |> List.sort String.compare

  let symbols t = locked t (fun () -> symbols_unlocked t)

  let snapshot_unlocked ?budget t =
    match t.snapshot_memo with
    | Some (v, s) when v = t.version -> s
    | _ ->
        let s = Structure.create ~universe_size:t.universe_size in
        List.iter
          (fun name ->
            let rl = Hashtbl.find t.relations name in
            Structure.install s name (Relation.view ?budget rl))
          (symbols_unlocked t);
        let s = Structure.seal s in
        t.snapshot_memo <- Some (t.version, s);
        s

  let snapshot ?budget t = locked t (fun () -> snapshot_unlocked ?budget t)

  let current ?budget t =
    locked t (fun () -> (t.version, t.fingerprint, snapshot_unlocked ?budget t))

  let needs_merge ?(threshold = 4096) ?(ratio = 0.25) t =
    threshold > 0
    &&
    locked t (fun () ->
        let delta, main =
          Hashtbl.fold
            (fun _ rl (d, m) ->
              (d + Relation.delta_rows rl, m + Relation.main_rows rl))
            t.relations (0, 0)
        in
        delta >= threshold && float_of_int delta >= (ratio *. float_of_int main))

  let merge ?budget t =
    locked t (fun () ->
        let t0 = Budget.now_ms () in
        let compacted =
          Hashtbl.fold
            (fun _ rl acc -> acc + Relation.merge ?budget rl)
            t.relations 0
        in
        if compacted > 0 then begin
          Metrics.incr (Lazy.force m_merge_total);
          Metrics.add (Lazy.force m_merge_rows) compacted;
          Metrics.observe (Lazy.force m_merge_duration) (Budget.now_ms () -. t0)
        end;
        compacted)
end
