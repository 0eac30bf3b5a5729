type tail = (string * Json.t) list

type 'a t = {
  enc : 'a -> Json.t;
  dec : string -> Json.t -> ('a, string) result;
  gen : Random.State.t -> 'a;
}

let sprintf = Printf.sprintf

(* ---------- value kinds ---------- *)

let gen_int rs =
  match Random.State.int rs 4 with
  | 0 -> Random.State.int rs 10
  | 1 -> Random.State.bits rs
  | 2 -> -Random.State.bits rs
  | _ -> Int64.to_int (Random.State.int64 rs Int64.max_int)

(* finite floats across magnitudes, including the repeating fractions
   that [%.6g] cannot carry *)
let gen_float rs =
  match Random.State.int rs 4 with
  | 0 -> Random.State.float rs 1.0
  | 1 -> 1.0 /. float_of_int (1 + Random.State.int rs 12)
  | 2 -> float_of_int (Random.State.int rs 100_000)
  | _ ->
      ldexp (Random.State.float rs 2.0 -. 1.0) (Random.State.int rs 200 - 100)

let int =
  {
    enc = (fun i -> Json.Int i);
    dec =
      (fun name -> function
        | Json.Int i -> Ok i
        | _ -> Error (sprintf "field %S must be an integer" name));
    gen = gen_int;
  }

let number name = function
  | Json.Float f | Json.Exact f -> Ok f
  | Json.Int i -> Ok (float_of_int i)
  | _ -> Error (sprintf "field %S must be a number" name)

let float =
  {
    enc = (fun f -> Json.Float f);
    dec = number;
    gen = (fun rs -> float_of_string (sprintf "%.6g" (gen_float rs)));
  }

let exact_float = { enc = (fun f -> Json.Exact f); dec = number; gen = gen_float }

let gen_string rs =
  let pool = "ab_Z09 \"\\\n\t\001/\xc3\xa9" in
  String.init (Random.State.int rs 12) (fun _ ->
      pool.[Random.State.int rs (String.length pool)])

let string =
  {
    enc = (fun s -> Json.String s);
    dec =
      (fun name -> function
        | Json.String s -> Ok s
        | _ -> Error (sprintf "field %S must be a string" name));
    gen = gen_string;
  }

let bool =
  {
    enc = (fun b -> Json.Bool b);
    dec =
      (fun name -> function
        | Json.Bool b -> Ok b
        | _ -> Error (sprintf "field %S must be a boolean" name));
    gen = Random.State.bool;
  }

let truthy =
  {
    enc = (fun b -> Json.Bool b);
    dec = (fun _ -> function Json.Bool true -> Ok true | _ -> Ok false);
    gen = Random.State.bool;
  }

let rec gen_json depth rs =
  match Random.State.int rs (if depth = 0 then 4 else 6) with
  | 0 -> Json.Null
  | 1 -> Json.Bool (Random.State.bool rs)
  | 2 -> Json.Int (gen_int rs)
  | 3 -> Json.String (gen_string rs)
  | 4 -> Json.List (List.init (Random.State.int rs 3) (fun _ -> gen_json (depth - 1) rs))
  | _ ->
      Json.Obj
        (List.init (Random.State.int rs 3) (fun i ->
             (sprintf "k%d" i, gen_json (depth - 1) rs)))

let json = { enc = Fun.id; dec = (fun _ j -> Ok j); gen = gen_json 2 }

let pick rs values = List.nth values (Random.State.int rs (List.length values))

let enum ~unknown to_string of_string values =
  {
    enc = (fun v -> Json.String (to_string v));
    dec =
      (fun name -> function
        | Json.String s -> (
            match of_string s with Some v -> Ok v | None -> Error (unknown s))
        | _ -> Error (sprintf "field %S must be a string" name));
    gen = (fun rs -> pick rs values);
  }

let nullable k =
  {
    enc = (function Some v -> k.enc v | None -> Json.Null);
    dec =
      (fun name -> function
        | Json.Null -> Ok None
        | j -> Result.map Option.some (k.dec name j));
    gen = (fun rs -> if Random.State.int rs 4 = 0 then None else Some (k.gen rs));
  }

let list ?(bad = sprintf "field %S must be a list") ?empty ?(skip_bad = false) k =
  let rec strict name acc = function
    | [] -> Ok (List.rev acc)
    | item :: rest -> (
        match k.dec name item with
        | Ok v -> strict name (v :: acc) rest
        | Error e -> Error e)
  in
  {
    enc = (fun vs -> Json.List (List.map k.enc vs));
    dec =
      (fun name -> function
        | Json.List items when skip_bad ->
            Ok (List.filter_map (fun j -> Result.to_option (k.dec name j)) items)
        | Json.List items -> (
            match (strict name [] items, empty) with
            | Ok [], Some empty -> Error (empty name)
            | decoded, _ -> decoded)
        | _ -> Error (bad name));
    gen =
      (fun rs ->
        let n = Random.State.int rs 4 + if empty = None then 0 else 1 in
        List.init n (fun _ -> k.gen rs));
  }

let array ?bad k =
  let l = list ?bad k in
  {
    enc = (fun vs -> Json.List (Array.fold_right (fun v acc -> k.enc v :: acc) vs []));
    dec = (fun name j -> Result.map Array.of_list (l.dec name j));
    gen = (fun rs -> Array.of_list (l.gen rs));
  }

let refine ?gen check k =
  {
    k with
    dec = (fun name j -> Result.bind (k.dec name j) check);
    gen = Option.value gen ~default:k.gen;
  }

let or_default default k =
  {
    k with
    dec = (fun name j -> match k.dec name j with Ok _ as ok -> ok | Error _ -> Ok default);
  }

let with_error msg k =
  {
    k with
    dec =
      (fun name j ->
        match k.dec name j with Ok _ as ok -> ok | Error _ -> Error (msg name));
  }

let no_members : tail = []

let take_req ?missing name k j =
  match Json.mem name j with
  | Some v -> k.dec name v
  | None ->
      Error
        (match missing with Some m -> m | None -> sprintf "missing field %S" name)

let take_opt name k j =
  match Json.mem name j with
  | None | Some Json.Null -> Ok None
  | Some v -> Result.map Option.some (k.dec name v)

(* ---------- records and variants ---------- *)

type 'r record = {
  emit : 'r -> tail -> tail;
  read : Json.t -> ('r, string) result;
  gen_r : Random.State.t -> 'r;
}

type 'v case =
  | Case : {
      tag : string;
      r : 'x record;
      inj : 'x -> 'v;
      prj : 'v -> 'x option;
    }
      -> 'v case

let case tag r inj prj = Case { tag; r; inj; prj }

let rec emit_case cases v =
  match cases with
  | [] -> invalid_arg "Codec.emit_case: no case accepts the value"
  | Case c :: rest -> (
      match c.prj v with
      | Some x -> (c.tag, c.r.emit x no_members)
      | None -> emit_case rest v)

let rec read_case cases tag j =
  match cases with
  | [] -> None
  | Case c :: _ when String.equal c.tag tag -> Some (Result.map c.inj (c.r.read j))
  | _ :: rest -> read_case rest tag j

type ('r, 'a) mem = {
  get : 'r -> 'a;
  put : 'a -> tail -> tail;
  take : Json.t -> ('a, string) result;
  draw : Random.State.t -> 'a;
}

type nest = { key : string; missing : string option; bad : string option }

type ('r, 'k, 'z) field =
  | Mem : ('r, 'a) mem -> ('r, 'a -> 'z, 'z) field
  | Nest : nest * ('r, 'k, 'z) fields -> ('r, 'k, 'z) field

and ('r, 'k, 'z) fields =
  | [] : ('r, 'z, 'z) fields
  | ( :: ) : ('r, 'k, 'm) field * ('r, 'm, 'z) fields -> ('r, 'k, 'z) fields

let rec encode : type r k z. (r, k, z) fields -> r -> tail -> tail =
 fun fields r tail ->
  match fields with
  | [] -> tail
  | Mem m :: rest -> m.put (m.get r) (encode rest r tail)
  | Nest (n, inner) :: rest ->
      let after : tail = encode rest r tail in
      (n.key, Json.Obj (encode inner r no_members)) :: after

let rec decode : type r k z. (r, k, z) fields -> Json.t -> k -> (z, string) result =
 fun fields j make ->
  match fields with
  | [] -> Ok make
  | Mem m :: rest -> (
      match m.take j with Ok v -> decode rest j (make v) | Error e -> Error e)
  | Nest (n, inner) :: rest -> (
      match (Json.mem n.key j, n.missing) with
      | None, Some missing -> Error missing
      | sub, _ -> (
          match decode inner (Option.value sub ~default:Json.Null) make with
          | Ok make -> decode rest j make
          | Error e -> Error (Option.value n.bad ~default:e)))

let rec generate : type r k z. (r, k, z) fields -> Random.State.t -> k -> z =
 fun fields rs make ->
  match fields with
  | [] -> make
  | Mem m :: rest -> generate rest rs (make (m.draw rs))
  | Nest (_, inner) :: rest -> generate rest rs (generate inner rs make)

let record make fields =
  {
    emit = encode fields;
    read = (fun j -> decode fields j make);
    gen_r = (fun rs -> generate fields rs make);
  }

let req ?missing name k get =
  Mem
    {
      get;
      put = (fun v (tail : tail) : tail -> (name, k.enc v) :: tail);
      take = take_req ?missing name k;
      draw = k.gen;
    }

let put_opt name k v (tail : tail) : tail =
  match v with Some x -> (name, k.enc x) :: tail | None -> tail

let draw_opt k rs = if Random.State.bool rs then Some (k.gen rs) else None

let opt name k get =
  Mem
    {
      get;
      put = put_opt name k;
      take = take_opt name k;
      draw = draw_opt k;
    }

let put_unless omit name k v (tail : tail) : tail =
  match omit with
  | Some omit when omit v -> tail
  | _ -> (name, k.enc v) :: tail

let dft ?omit name k default get =
  Mem
    {
      get;
      put = put_unless omit name k;
      take =
        (fun j ->
          match Json.mem name j with
          | None | Some Json.Null -> Ok default
          | Some v -> k.dec name v);
      draw = k.gen;
    }

let lax ?omit name k default get = dft ?omit name (or_default default k) default get

let lax_opt name k get =
  Mem
    {
      get;
      put = put_opt name k;
      take =
        (fun j ->
          match Json.mem name j with
          | Some v -> Ok (Result.to_option (k.dec name v))
          | None -> Ok None);
      draw = draw_opt k;
    }

let nest ?missing ?bad key fields = Nest ({ key; missing; bad }, fields)

let embed r get = Mem { get; put = r.emit; take = r.read; draw = r.gen_r }
let member ~emit ~read ~gen get = Mem { get; put = emit; take = read; draw = gen }

let obj ?bad r =
  {
    enc = (fun v -> Json.Obj (r.emit v no_members));
    dec =
      (fun name j ->
        match (j, bad) with
        | Json.Obj _, _ | _, None -> r.read j
        | _, Some bad -> Error (bad name));
    gen = r.gen_r;
  }

(* ---------- running ---------- *)

let emit r v tail = r.emit v tail
let read r j = r.read j
let to_json k v = k.enc v
let of_json k name j = k.dec name j
let get name k j = take_req name k j
let get_opt = take_opt

let gen k rs = k.gen rs
let gen_record r rs = r.gen_r rs
let gen_case cases rs = match pick rs cases with Case c -> c.inj (c.r.gen_r rs)
