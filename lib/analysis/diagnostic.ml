type severity = Error | Warning | Info | Hint

type code =
  | Syntax_error
  | Unused_variable
  | Disconnected
  | Diseq_degenerate
  | Duplicate_atom
  | Negated_twin
  | Signature_mismatch
  | Star_size
  | Width_blowup
  | Unguarded_variable
  | Empty_relation
  | Quantifier_free
  | Output_blowup

type span = { start : int; stop : int }

type t = {
  code : code;
  severity : severity;
  span : span option;
  message : string;
  theorem : string option;
}

let code_number = function
  | Syntax_error -> 0
  | Unused_variable -> 1
  | Disconnected -> 2
  | Diseq_degenerate -> 3
  | Duplicate_atom -> 4
  | Negated_twin -> 5
  | Signature_mismatch -> 6
  | Star_size -> 7
  | Width_blowup -> 8
  | Unguarded_variable -> 9
  | Empty_relation -> 10
  | Quantifier_free -> 11
  | Output_blowup -> 12

let code_id c = Printf.sprintf "QL%03d" (code_number c)

let code_slug = function
  | Syntax_error -> "syntax-error"
  | Unused_variable -> "unused-variable-in-single-atom"
  | Disconnected -> "disconnected-query"
  | Diseq_degenerate -> "degenerate-disequality"
  | Duplicate_atom -> "duplicate-atom"
  | Negated_twin -> "negated-twin-always-empty"
  | Signature_mismatch -> "signature-mismatch"
  | Star_size -> "star-size-regime"
  | Width_blowup -> "width-blowup"
  | Unguarded_variable -> "unguarded-variable"
  | Empty_relation -> "empty-relation"
  | Quantifier_free -> "quantifier-free-exact"
  | Output_blowup -> "output-blowup"

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"
  | Hint -> "hint"

let severity_rank = function Error -> 0 | Warning -> 1 | Info -> 2 | Hint -> 3

let compare a b =
  let c = Stdlib.compare (severity_rank a.severity) (severity_rank b.severity) in
  if c <> 0 then c
  else
    let c = Stdlib.compare (code_number a.code) (code_number b.code) in
    if c <> 0 then c
    else
      let start = function None -> max_int | Some s -> s.start in
      Stdlib.compare (start a.span, a.message) (start b.span, b.message)

let is_error d = d.severity = Error

let pp fmt d =
  (match d.span with
  | Some { start; stop } ->
      Format.fprintf fmt "%s %-7s [%d-%d]: %s" (code_id d.code)
        (severity_name d.severity) start stop d.message
  | None ->
      Format.fprintf fmt "%s %-7s %s" (code_id d.code)
        (severity_name d.severity) d.message);
  match d.theorem with
  | Some thm -> Format.fprintf fmt " (%s)" thm
  | None -> ()

let to_json d =
  Json.Obj
    [
      ("code", Json.String (code_id d.code));
      ("slug", Json.String (code_slug d.code));
      ("severity", Json.String (severity_name d.severity));
      ( "span",
        match d.span with
        | None -> Json.Null
        | Some { start; stop } ->
            Json.Obj [ ("start", Json.Int start); ("stop", Json.Int stop) ] );
      ("message", Json.String d.message);
      ( "theorem",
        match d.theorem with None -> Json.Null | Some t -> Json.String t );
    ]
