type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Exact of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* the C printer behind Printf's %g, without Printf's format
   interpretation: identical text, a fraction of the cost *)
external format_float : string -> float -> string = "caml_format_float"

let g_formats = Array.init 18 (Printf.sprintf "%%.%dg")

(* [%.6g], or with [~exact] the shortest [%.{6..17}g] that reads back
   as the same bits — identical to [%.6g] whenever that suffices. *)
let float_repr ?(exact = false) f =
  if not (Float.is_finite f) then "null"
  else
    let rec digits p =
      let s = format_float g_formats.(p) f in
      if (not exact) || p >= 17
         || Int64.equal
              (Int64.bits_of_float (float_of_string s))
              (Int64.bits_of_float f)
      then s
      else digits (p + 1)
    in
    let s = digits 6 in
    (* "1" would parse as an int downstream; keep floats recognisable *)
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (string_of_bool b)
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Exact f -> Buffer.add_string buf (float_repr ~exact:true f)
  | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  emit buf j;
  Buffer.contents buf

let rec emit_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | Exact _ | String _) as j -> emit buf j
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          emit_pretty buf (indent + 2) item)
        items;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
      let pad = String.make (indent + 2) ' ' in
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          emit_pretty buf (indent + 2) v)
        fields;
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make indent ' ');
      Buffer.add_char buf '}'

let to_string_pretty j =
  let buf = Buffer.create 512 in
  emit_pretty buf 0 j;
  Buffer.contents buf

let pp fmt j = Format.pp_print_string fmt (to_string j)

(* ---------- parsing ---------- *)

type error = { offset : int; msg : string }

let error_message e = Printf.sprintf "%s at offset %d" e.msg e.offset
let max_depth = 512

exception Err of error

let parse text =
  let n = String.length text in
  let pos = ref 0 in
  let fail ?offset msg =
    raise (Err { offset = (match offset with Some o -> o | None -> !pos); msg })
  in
  let peek () = if !pos < n then Some text.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && (match text.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
    | None -> fail ~offset:n (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal word value =
    let start = !pos in
    let w = String.length word in
    if start + w <= n && String.sub text start w = word then begin
      pos := start + w;
      value
    end
    else fail ~offset:start (Printf.sprintf "invalid literal (expected %s)" word)
  in
  (* UTF-8-encode one code point into [buf]. *)
  let add_code_point buf cp =
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let hex4 () =
    let start = !pos in
    if start + 4 > n then fail ~offset:n "truncated \\u escape";
    let v = ref 0 in
    for i = start to start + 3 do
      let d =
        match text.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail ~offset:i "invalid hex digit in \\u escape"
      in
      v := (!v * 16) + d
    done;
    pos := start + 4;
    !v
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail ~offset:n "unterminated string"
      else
        match text.[!pos] with
        | '"' -> advance ()
        | '\\' -> (
            advance ();
            match peek () with
            | None -> fail ~offset:n "unterminated escape"
            | Some c ->
                advance ();
                (match c with
                | '"' -> Buffer.add_char buf '"'
                | '\\' -> Buffer.add_char buf '\\'
                | '/' -> Buffer.add_char buf '/'
                | 'b' -> Buffer.add_char buf '\b'
                | 'f' -> Buffer.add_char buf '\012'
                | 'n' -> Buffer.add_char buf '\n'
                | 'r' -> Buffer.add_char buf '\r'
                | 't' -> Buffer.add_char buf '\t'
                | 'u' ->
                    let cp = hex4 () in
                    let cp =
                      (* high surrogate: combine with the trailing low
                         surrogate when present *)
                      if cp >= 0xD800 && cp <= 0xDBFF
                         && !pos + 1 < n
                         && text.[!pos] = '\\'
                         && text.[!pos + 1] = 'u'
                      then begin
                        let save = !pos in
                        pos := !pos + 2;
                        let lo = hex4 () in
                        if lo >= 0xDC00 && lo <= 0xDFFF then
                          0x10000 + (((cp - 0xD800) lsl 10) lor (lo - 0xDC00))
                        else begin
                          pos := save;
                          cp
                        end
                      end
                      else cp
                    in
                    add_code_point buf cp
                | c -> fail (Printf.sprintf "invalid escape \\%c" c));
                go ())
        | c when Char.code c < 0x20 ->
            fail "unescaped control character in string"
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && (match text.[!pos] with '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
        is_float := true;
        advance ();
        (match peek () with Some ('+' | '-') -> advance () | _ -> ());
        digits ()
    | _ -> ());
    let s = String.sub text start (!pos - start) in
    if !is_float then Float (float_of_string s)
    else
      match int_of_string_opt s with
      | Some i -> Int i
      | None -> Float (float_of_string s)
  in
  let rec parse_value depth =
    if depth > max_depth then fail "nesting deeper than the accepted maximum";
    skip_ws ();
    match peek () with
    | None -> fail ~offset:n "expected a value, found end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value (depth + 1) ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value (depth + 1) :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value (depth + 1) in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos < n then fail "trailing content after the document";
    v
  with
  | v -> Ok v
  | exception Err e -> Error e

(* ---------- accessors ---------- *)

let mem key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_int = function Int i -> Some i | _ -> None

let to_float = function
  | Float f | Exact f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_str = function String s -> Some s | _ -> None
let to_list = function List l -> Some l | _ -> None
