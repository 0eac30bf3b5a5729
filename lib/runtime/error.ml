type t =
  | Parse of { source : string; msg : string }
  | Io of { file : string; msg : string }
  | Signature_mismatch of string
  | Budget of Budget.trip
  | Numeric_overflow of string
  | Fault of string
  | Overloaded of string
  | Internal of string
  | Deadline_exceeded of { deadline_ms : int; msg : string }
  | Retry_unsafe of { verb : string; msg : string }
  | Sealed_mutation of string

exception E of t

let message = function
  | Parse { source; msg } -> Printf.sprintf "parse error in %s: %s" source msg
  | Io { file; msg } -> Printf.sprintf "%s: %s" file msg
  | Signature_mismatch msg -> "signature mismatch: " ^ msg
  | Budget tr -> Format.asprintf "%a" Budget.pp_trip tr
  | Numeric_overflow msg -> "numeric overflow: " ^ msg
  | Fault msg -> "injected fault: " ^ msg
  | Overloaded msg -> "overloaded: " ^ msg
  | Internal msg -> "internal error: " ^ msg
  | Deadline_exceeded { deadline_ms; msg } ->
      Printf.sprintf "deadline exceeded (%d ms): %s" deadline_ms msg
  | Retry_unsafe { verb; msg } ->
      Printf.sprintf "%s cannot be retried safely: %s" verb msg
  | Sealed_mutation msg -> "sealed mutation: " ^ msg

let class_name = function
  | Parse _ -> "parse"
  | Io _ -> "io"
  | Signature_mismatch _ -> "signature"
  | Budget _ -> "budget"
  | Numeric_overflow _ -> "overflow"
  | Fault _ -> "fault"
  | Overloaded _ -> "overloaded"
  | Internal _ -> "internal"
  | Deadline_exceeded _ -> "deadline"
  | Retry_unsafe _ -> "retry"
  | Sealed_mutation _ -> "sealed"

let exit_code = function
  | Parse _ -> 10
  | Io _ -> 11
  | Signature_mismatch _ -> 12
  | Budget _ -> 13
  | Numeric_overflow _ -> 14
  | Fault _ -> 15
  | Internal _ -> 16
  | Overloaded _ -> 17
  | Deadline_exceeded _ -> 18
  | Retry_unsafe _ -> 19
  | Sealed_mutation _ -> 20

let of_exn = function
  | E e -> Some e
  | Budget.Budget_exceeded tr -> Some (Budget tr)
  | Failure msg -> Some (Internal msg)
  | Invalid_argument msg -> Some (Internal msg)
  | Sys_error msg -> Some (Io { file = "<sys>"; msg })
  | _ -> None

let guard ?source f =
  let reclass msg =
    match source with
    | Some s -> Parse { source = s; msg }
    | None -> Internal msg
  in
  match f () with
  | v -> Ok v
  | exception E e -> Error e
  | exception Budget.Budget_exceeded tr -> Error (Budget tr)
  | exception Failure msg -> Error (reclass msg)
  | exception Invalid_argument msg -> Error (reclass msg)

let raise_e e = raise (E e)
let pp fmt e = Format.pp_print_string fmt (message e)
