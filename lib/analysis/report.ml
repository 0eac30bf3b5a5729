module Ecq = Ac_query.Ecq
module D = Diagnostic

type t = {
  query : Ecq.t option;
  classification : Classification.t option;
  diagnostics : D.t list;
  cost : Cost.t option;
}

(* The query-only analysis — the Figure-1 classification (treewidth
   and fhw LPs, the width certificate) and the cost model's edge-cover
   LPs — depends on nothing but the canonical query key, so it is
   computed once per key and only instantiated against each database
   version's stats. A live database changes version on every write, so
   the plan cache misses on the next COUNT; the memo keeps that miss
   from re-solving every LP. The memo is shared by server threads (hence the mutex) and bounded: at
   [memo_capacity] keys it is emptied before the next insert. The
   skeleton is built outside the lock; two threads racing on one key
   compute the same value. *)
let memo_capacity = 256
let memo : (string, Classification.t * Cost.prepared) Hashtbl.t =
  Hashtbl.create 64
let memo_lock = Mutex.create ()

let with_memo f =
  Mutex.lock memo_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock memo_lock) f

let memo_length () = with_memo (fun () -> Hashtbl.length memo)

let skeleton q =
  let key = Ecq.key q in
  match with_memo (fun () -> Hashtbl.find_opt memo key) with
  | Some s -> s
  | None ->
      let c = Classify.classify q in
      let s = (c, Cost.prepare q c) in
      with_memo (fun () ->
          if Hashtbl.length memo >= memo_capacity then Hashtbl.reset memo;
          Hashtbl.replace memo key s);
      s

let analyze ?db ?spans q =
  let c, prepared = skeleton q in
  let cost =
    Option.map
      (fun db -> Cost.instantiate ~stats:(Cardinality.of_structure db) prepared)
      db
  in
  {
    query = Some q;
    classification = Some c;
    diagnostics = Lints.run ?db ?cost ?spans q c;
    cost;
  }

(* A parse failure becomes one span-carrying diagnostic. The
   contradictory-disequality shape is semantic rather than syntactic, so
   it keeps its own stable code (QL003). *)
let of_parse_error (pe : Ecq.parse_error) =
  let contradictory =
    let has_sub needle hay =
      let ln = String.length needle and lh = String.length hay in
      let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
      go 0
    in
    has_sub "contradictory disequality" pe.Ecq.msg
    || has_sub "disequality between equal variables" pe.Ecq.msg
  in
  let span =
    if pe.Ecq.offset < 0 then None
    else
      Some
        {
          D.start = pe.Ecq.offset;
          stop = pe.Ecq.offset + max 1 (String.length pe.Ecq.token);
        }
  in
  if contradictory then
    {
      D.code = D.Diseq_degenerate;
      severity = D.Error;
      span;
      message = pe.Ecq.msg ^ " — the query is always empty";
      theorem = Some "Definition 1 semantics";
    }
  else
    {
      D.code = D.Syntax_error;
      severity = D.Error;
      span;
      message = Ecq.parse_error_message pe;
      theorem = None;
    }

let analyze_text ?db text =
  match Ecq.parse_spans text with
  | q, spans -> analyze ?db ~spans q
  | exception Ecq.Parse_error pe ->
      {
        query = None;
        classification = None;
        diagnostics = [ of_parse_error pe ];
        cost = None;
      }

let classification_exn t =
  match t.classification with
  | Some c -> c
  | None -> invalid_arg "Report.classification_exn: parse failed"

let errors t = List.filter D.is_error t.diagnostics
let has_errors t = errors t <> []

let tally t =
  List.fold_left
    (fun (e, w, i, h) (d : D.t) ->
      match d.D.severity with
      | D.Error -> (e + 1, w, i, h)
      | D.Warning -> (e, w + 1, i, h)
      | D.Info -> (e, w, i + 1, h)
      | D.Hint -> (e, w, i, h + 1))
    (0, 0, 0, 0) t.diagnostics

let exit_status t = if has_errors t then 1 else 0

let pp fmt t =
  List.iter (fun d -> Format.fprintf fmt "%a@." D.pp d) t.diagnostics;
  let e, w, i, h = tally t in
  if e + w + i + h = 0 then Format.fprintf fmt "clean@."
  else
    Format.fprintf fmt "%d error(s), %d warning(s), %d info(s), %d hint(s)@."
      e w i h

let to_json t =
  let e, w, i, h = tally t in
  Json.Obj
    [
      ( "query",
        match t.query with
        | Some q -> Json.String (Ecq.to_string q)
        | None -> Json.Null );
      ( "classification",
        match t.classification with
        | Some c -> Classification.to_json c
        | None -> Json.Null );
      ("diagnostics", Json.List (List.map D.to_json t.diagnostics));
      ( "cost",
        match t.cost with Some cost -> Cost.to_json cost | None -> Json.Null );
      ("errors", Json.Int e);
      ("warnings", Json.Int w);
      ("infos", Json.Int i);
      ("hints", Json.Int h);
    ]
