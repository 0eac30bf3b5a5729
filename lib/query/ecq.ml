module Structure = Ac_relational.Structure
module Hypergraph = Ac_hypergraph.Hypergraph

type atom =
  | Atom of string * int array
  | Neg_atom of string * int array
  | Diseq of int * int

type t = {
  num_free : int;
  num_vars : int;
  atoms : atom list;
  var_names : string array;
}

let default_names num_vars = Array.init num_vars (fun i -> "x" ^ string_of_int i)

let make ?var_names ~num_free ~num_vars atoms =
  if num_free < 0 || num_vars < num_free then invalid_arg "Ecq.make: bad variable counts";
  if num_vars = 0 then invalid_arg "Ecq.make: a query needs at least one variable";
  let var_names =
    match var_names with
    | None -> default_names num_vars
    | Some names ->
        if Array.length names <> num_vars then invalid_arg "Ecq.make: var_names length";
        names
  in
  let occurs = Array.make num_vars false in
  let arities : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let check_var v =
    if v < 0 || v >= num_vars then invalid_arg "Ecq.make: variable out of range";
    occurs.(v) <- true
  in
  let check_pred name vars =
    if Array.length vars = 0 then invalid_arg "Ecq.make: nullary predicate";
    Array.iter check_var vars;
    match Hashtbl.find_opt arities name with
    | Some a ->
        if a <> Array.length vars then
          invalid_arg (Printf.sprintf "Ecq.make: %s used with two arities" name)
    | None -> Hashtbl.replace arities name (Array.length vars)
  in
  List.iter
    (function
      | Atom (name, vars) | Neg_atom (name, vars) -> check_pred name vars
      | Diseq (i, j) ->
          if i = j then invalid_arg "Ecq.make: disequality between equal variables";
          check_var i;
          check_var j)
    atoms;
  if not (Array.for_all Fun.id occurs) then
    invalid_arg "Ecq.make: every variable must occur in an atom";
  { num_free; num_vars; atoms; var_names }

let num_free q = q.num_free
let num_vars q = q.num_vars
let num_existential q = q.num_vars - q.num_free
let atoms q = q.atoms

let size q =
  q.num_vars
  + List.fold_left
      (fun acc -> function
        | Atom (_, vs) | Neg_atom (_, vs) -> acc + Array.length vs
        | Diseq _ -> acc + 2)
      0 q.atoms

let num_predicates q =
  List.length
    (List.filter (function Atom _ | Neg_atom _ -> true | Diseq _ -> false) q.atoms)

let num_negated q =
  List.length (List.filter (function Neg_atom _ -> true | _ -> false) q.atoms)

let delta q =
  List.filter_map
    (function
      | Diseq (i, j) -> Some (min i j, max i j)
      | Atom _ | Neg_atom _ -> None)
    q.atoms
  |> List.sort_uniq compare

let is_cq q =
  List.for_all (function Atom _ -> true | Neg_atom _ | Diseq _ -> false) q.atoms

let is_dcq q =
  List.for_all (function Atom _ | Diseq _ -> true | Neg_atom _ -> false) q.atoms

let signature q =
  let arities = Hashtbl.create 8 in
  List.iter
    (function
      | Atom (name, vs) | Neg_atom (name, vs) ->
          Hashtbl.replace arities name (Array.length vs)
      | Diseq _ -> ())
    q.atoms;
  Hashtbl.fold (fun name a acc -> (name, a) :: acc) arities []
  |> List.sort compare

let hypergraph q =
  let edges =
    List.filter_map
      (function
        | Atom (_, vs) | Neg_atom (_, vs) ->
            Some (List.sort_uniq compare (Array.to_list vs))
        | Diseq _ -> None)
      q.atoms
  in
  (* isolated variables (occurring only in disequalities) become singleton
     edges so that V(H) = vars(φ) stays covered by the decomposition *)
  let covered = Array.make q.num_vars false in
  List.iter (List.iter (fun v -> covered.(v) <- true)) edges;
  let singletons =
    List.init q.num_vars Fun.id
    |> List.filter_map (fun v -> if covered.(v) then None else Some [ v ])
  in
  Hypergraph.create ~num_vertices:q.num_vars (edges @ singletons)

let compatible_with q db =
  List.for_all
    (fun (name, arity) ->
      Structure.mem_symbol db name && Structure.arity_of db name = arity)
    (signature q)

let satisfied_by q db assignment =
  Array.length assignment = q.num_vars
  && List.for_all
       (function
         | Atom (name, vs) ->
             Structure.holds db name (Array.map (fun v -> assignment.(v)) vs)
         | Neg_atom (name, vs) ->
             not (Structure.holds db name (Array.map (fun v -> assignment.(v)) vs))
         | Diseq (i, j) -> assignment.(i) <> assignment.(j))
       q.atoms

let var_name q v = q.var_names.(v)

let pp fmt q =
  let pp_vars fmt vs =
    Format.pp_print_string fmt
      (String.concat ", " (Array.to_list (Array.map (fun v -> q.var_names.(v)) vs)))
  in
  let frees = Array.init q.num_free Fun.id in
  Format.fprintf fmt "ans(%a) :- " pp_vars frees;
  Format.pp_print_string fmt
    (String.concat ", "
       (List.map
          (function
            | Atom (name, vs) ->
                Format.asprintf "%s(%a)" name pp_vars vs
            | Neg_atom (name, vs) ->
                Format.asprintf "!%s(%a)" name pp_vars vs
            | Diseq (i, j) ->
                Printf.sprintf "%s != %s" q.var_names.(i) q.var_names.(j))
          q.atoms))

let to_string q = Format.asprintf "%a" pp q

let key q =
  let buf = Buffer.create 64 in
  Printf.bprintf buf "%d/%d" q.num_free q.num_vars;
  let var_list vs =
    String.concat "," (List.map string_of_int (Array.to_list vs))
  in
  List.iter
    (function
      | Atom (r, vs) -> Printf.bprintf buf ";+%s(%s)" r (var_list vs)
      | Neg_atom (r, vs) -> Printf.bprintf buf ";-%s(%s)" r (var_list vs)
      | Diseq (i, j) -> Printf.bprintf buf ";%d!=%d" i j)
    q.atoms;
  Buffer.contents buf

let add_diseqs q pairs =
  let atoms = q.atoms @ List.map (fun (i, j) -> Diseq (i, j)) pairs in
  make ~var_names:q.var_names ~num_free:q.num_free ~num_vars:q.num_vars atoms

let all_pairs_diseq_free q =
  let pairs = ref [] in
  for i = 0 to q.num_free - 1 do
    for j = i + 1 to q.num_free - 1 do
      pairs := (i, j) :: !pairs
    done
  done;
  let existing = delta q in
  let fresh = List.filter (fun p -> not (List.mem p existing)) !pairs in
  add_diseqs q fresh

(* ------------------------------------------------------------------ *)
(* Parser for the textual form:
     ans(x, y) :- E(x, y), E(y, z), !R(x, z), x != z
   Tokens: identifiers, '(', ')', ',', ':-', '!', '!=', 'not'. Every
   token carries its character offsets so that errors can point at the
   offending token and atoms can carry source spans for `acq lint`. *)

type token =
  | Ident of string
  | Lparen
  | Rparen
  | Comma
  | Turnstile
  | Bang
  | Neq
  | Equal

type parse_error = { offset : int; token : string; msg : string }

exception Parse_error of parse_error

let parse_error_message pe =
  if pe.offset < 0 then "Ecq.parse: " ^ pe.msg
  else if pe.token = "" then
    Printf.sprintf "Ecq.parse: %s at offset %d" pe.msg pe.offset
  else
    Printf.sprintf "Ecq.parse: %s at offset %d (near %S)" pe.msg pe.offset
      pe.token

let fail_at ~offset ~token msg = raise (Parse_error { offset; token; msg })

let token_text = function
  | Ident s -> s
  | Lparen -> "("
  | Rparen -> ")"
  | Comma -> ","
  | Turnstile -> ":-"
  | Bang -> "!"
  | Neq -> "!="
  | Equal -> "="

(* [(token, start, stop)] with [stop] exclusive. *)
let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let i = ref 0 in
  let is_ident_char c =
    (c >= 'a' && c <= 'z')
    || (c >= 'A' && c <= 'Z')
    || (c >= '0' && c <= '9')
    || c = '_' || c = '\'' || c = '='
  in
  let push t start stop = tokens := (t, start, stop) :: !tokens in
  while !i < n do
    let c = input.[!i] in
    if c = ' ' || c = '\t' || c = '\n' then incr i
    else if c = '(' then (push Lparen !i (!i + 1); incr i)
    else if c = ')' then (push Rparen !i (!i + 1); incr i)
    else if c = ',' then (push Comma !i (!i + 1); incr i)
    else if c = ':' && !i + 1 < n && input.[!i + 1] = '-' then begin
      push Turnstile !i (!i + 2);
      i := !i + 2
    end
    else if c = '!' && !i + 1 < n && input.[!i + 1] = '=' then begin
      push Neq !i (!i + 2);
      i := !i + 2
    end
    else if c = '!' then (push Bang !i (!i + 1); incr i)
    else if c = '=' then (push Equal !i (!i + 1); incr i)
    else if is_ident_char c && c <> '=' then begin
      let start = !i in
      while !i < n && is_ident_char input.[!i] && input.[!i] <> '=' do incr i done;
      push (Ident (String.sub input start (!i - start))) start !i
    end
    else
      fail_at ~offset:!i ~token:(String.make 1 c) "unexpected character"
  done;
  List.rev !tokens

let parse_spans input =
  let tokens = ref (tokenize input) in
  let eof = String.length input in
  let peek () = match !tokens with [] -> None | (t, _, _) :: _ -> Some t in
  let next_pos () =
    match !tokens with
    | [] -> fail_at ~offset:eof ~token:"" "unexpected end of input"
    | (t, s, e) :: rest ->
        tokens := rest;
        (t, s, e)
  in
  let expect t what =
    let got, s, _ = next_pos () in
    if got <> t then
      fail_at ~offset:s ~token:(token_text got) ("expected " ^ what)
  in
  let ident_pos what =
    match next_pos () with
    | Ident s, start, stop -> (s, start, stop)
    | got, s, _ ->
        fail_at ~offset:s ~token:(token_text got) ("expected " ^ what)
  in
  let var_ids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let var_of name =
    match Hashtbl.find_opt var_ids name with
    | Some v -> v
    | None ->
        let v = Hashtbl.length var_ids in
        Hashtbl.replace var_ids name v;
        v
  in
  (* head *)
  let head, head_start, _ = ident_pos "head predicate" in
  if String.lowercase_ascii head <> "ans" then
    fail_at ~offset:head_start ~token:head "head predicate must be named ans";
  expect Lparen "(";
  let rec head_vars acc =
    match next_pos () with
    | Ident v, start, stop -> (
        let acc = (var_of v, v, start, stop) :: acc in
        match next_pos () with
        | Comma, _, _ -> head_vars acc
        | Rparen, _, _ -> List.rev acc
        | got, s, _ -> fail_at ~offset:s ~token:(token_text got) "bad head")
    | Rparen, _, _ when acc = [] -> []
    | got, s, _ -> fail_at ~offset:s ~token:(token_text got) "bad head"
  in
  let frees =
    match peek () with
    | Some Rparen ->
        ignore (next_pos ());
        []
    | _ -> head_vars []
  in
  (* the head must list variables 0..ℓ-1 in order, which holds because
     var_of numbers them on first occurrence *)
  List.iteri
    (fun i (v, name, start, _) ->
      if v <> i then
        fail_at ~offset:start ~token:name "repeated variable in head")
    frees;
  expect Turnstile ":-";
  let parse_args () =
    expect Lparen "(";
    let rec go acc =
      match next_pos () with
      | Ident v, _, _ -> (
          let acc = var_of v :: acc in
          match next_pos () with
          | Comma, _, _ -> go acc
          | Rparen, _, stop -> (List.rev acc, stop)
          | got, s, _ ->
              fail_at ~offset:s ~token:(token_text got) "bad argument list")
      | got, s, _ ->
          fail_at ~offset:s ~token:(token_text got) "bad argument list"
    in
    go []
  in
  (* body items: atoms with their source spans, and equalities *)
  let rec body acc =
    let item =
      match next_pos () with
      | Bang, start, _ ->
          let name, _, _ = ident_pos "predicate after !" in
          let args, stop = parse_args () in
          `Atom (Neg_atom (name, Array.of_list args), start, stop)
      | Ident "not", start, _ ->
          let name, _, _ = ident_pos "predicate after not" in
          let args, stop = parse_args () in
          `Atom (Neg_atom (name, Array.of_list args), start, stop)
      | Ident name, start, _ -> (
          match peek () with
          | Some Lparen ->
              let args, stop = parse_args () in
              `Atom (Atom (name, Array.of_list args), start, stop)
          | Some Neq ->
              ignore (next_pos ());
              let rhs, _, stop = ident_pos "variable after !=" in
              `Atom (Diseq (var_of name, var_of rhs), start, stop)
          | Some Equal ->
              ignore (next_pos ());
              let rhs, _, stop = ident_pos "variable after =" in
              `Equality (var_of name, var_of rhs, start, stop)
          | _ ->
              let offset, token =
                match !tokens with
                | (t, s, _) :: _ -> (s, token_text t)
                | [] -> (eof, "")
              in
              fail_at ~offset ~token "expected (, != or = after identifier")
      | got, s, _ -> fail_at ~offset:s ~token:(token_text got) "expected atom"
    in
    let acc = item :: acc in
    match peek () with
    | Some Comma ->
        ignore (next_pos ());
        body acc
    | None -> List.rev acc
    | Some got ->
        let offset = match !tokens with (_, s, _) :: _ -> s | [] -> eof in
        fail_at ~offset ~token:(token_text got) "trailing tokens"
  in
  let items = body [] in
  let raw_atoms =
    List.filter_map
      (function `Atom (a, s, e) -> Some (a, s, e) | `Equality _ -> None)
      items
  in
  let equalities =
    List.filter_map
      (function `Equality (a, b, s, e) -> Some (a, b, s, e) | `Atom _ -> None)
      items
  in
  let num_raw = Hashtbl.length var_ids in
  let num_free = List.length frees in
  (* §1.1 preprocessing: rewrite equalities away by unifying variables
     (union-find); a class may contain at most one free variable, and a
     free variable is always its class's representative. *)
  let uf = Array.init num_raw Fun.id in
  let rec find v = if uf.(v) = v then v else (uf.(v) <- find uf.(v); uf.(v)) in
  List.iter
    (fun (a, b, start, stop) ->
      let ra = find a and rb = find b in
      if ra <> rb then
        if ra < num_free && rb < num_free then
          fail_at ~offset:start
            ~token:(String.sub input start (stop - start))
            "equality between two free variables"
        else if ra < num_free then uf.(rb) <- ra
        else if rb < num_free then uf.(ra) <- rb
        else uf.(ra) <- rb)
    equalities;
  (* compact renumbering: free variables keep their ids, surviving
     existential representatives follow *)
  let remap = Hashtbl.create 16 in
  for v = 0 to num_free - 1 do
    Hashtbl.replace remap (find v) v
  done;
  let next_id = ref num_free in
  for v = 0 to num_raw - 1 do
    let r = find v in
    if not (Hashtbl.mem remap r) then begin
      Hashtbl.replace remap r !next_id;
      incr next_id
    end
  done;
  let rename v = Hashtbl.find remap (find v) in
  let atoms_spanned =
    List.map
      (fun (atom, start, stop) ->
        let atom =
          match atom with
          | Atom (name, vs) -> Atom (name, Array.map rename vs)
          | Neg_atom (name, vs) -> Neg_atom (name, Array.map rename vs)
          | Diseq (i, j) -> Diseq (rename i, rename j)
        in
        (atom, start, stop))
      raw_atoms
  in
  (* a disequality whose sides were unified (x != x, directly or through
     equalities) is always false: reject with the offending span so the
     linter can report it as QL003 *)
  List.iter
    (function
      | Diseq (i, j), start, stop when i = j ->
          fail_at ~offset:start
            ~token:(String.sub input start (stop - start))
            "contradictory disequality: both sides denote the same variable"
      | _ -> ())
    atoms_spanned;
  let atoms = List.map (fun (a, _, _) -> a) atoms_spanned in
  let spans =
    Array.of_list (List.map (fun (_, s, e) -> (s, e)) atoms_spanned)
  in
  let num_vars = !next_id in
  let var_names = Array.make num_vars "" in
  Hashtbl.iter
    (fun name v ->
      let r = rename v in
      if var_names.(r) = "" || find v = v then var_names.(r) <- name)
    var_ids;
  match make ~var_names ~num_free ~num_vars atoms with
  | q -> (q, spans)
  | exception Invalid_argument msg -> fail_at ~offset:(-1) ~token:"" msg

let parse input =
  match parse_spans input with
  | q, _ -> q
  | exception Parse_error pe -> failwith (parse_error_message pe)

let parse_result input =
  match parse_spans input with
  | q, _ -> Ok q
  | exception Parse_error pe ->
      Error
        (Ac_runtime.Error.Parse { source = "query"; msg = parse_error_message pe })
  | exception (Failure msg | Invalid_argument msg) ->
      Error (Ac_runtime.Error.Parse { source = "query"; msg })
