module Error = Ac_runtime.Error

(* Sorted projection of a sealed relation: rows filtered by the equality
   pattern, projected to [positions], lex-sorted and deduplicated, with a
   CSR (offset-compressed) index over the first projected column. *)
type cols = {
  columns : Column.t array;
  rows : int;
  dict0 : Column.t;
  offsets0 : Column.t; (* length |dict0| + 1; row range of dict0.(k) *)
}

type sealed = {
  primary : cols; (* identity projection: the relation itself *)
  dicts : Column.t array; (* per-column sorted distinct values *)
  projections : (string, cols) Hashtbl.t; (* memo, keyed by permutation *)
  lock : Mutex.t; (* guards [projections] across server threads *)
}

type repr =
  | Building of unit Tuple.Table.t
  | Sealed of sealed
  | Complement of { base : t; universe_size : int }

and t = { arity : int; mutable repr : repr }

(* Phase transitions are idempotent and rare; one global lock is enough
   and keeps the sealed record free of transition state. *)
let seal_lock = Mutex.create ()

let create ~arity =
  if arity < 1 then invalid_arg "Relation.create: arity must be positive";
  { arity; repr = Building (Tuple.Table.create 64) }

let arity r = r.arity

let pow_saturating base exp =
  let rec go acc n =
    if n = 0 then acc
    else if acc > max_int / base then max_int
    else go (acc * base) (n - 1)
  in
  if base = 0 then if exp = 0 then 1 else 0 else go 1 exp

let complement_cardinality ~universe_size ~arity rows =
  let total = pow_saturating universe_size arity in
  if total = max_int then max_int else total - rows

let cardinality r =
  match r.repr with
  | Building tbl -> Tuple.Table.length tbl
  | Sealed s -> s.primary.rows
  | Complement { base; universe_size } ->
      let b = match base.repr with
        | Sealed s -> s.primary.rows
        | Building tbl -> Tuple.Table.length tbl
        | Complement _ -> 0
      in
      complement_cardinality ~universe_size ~arity:r.arity b

let is_sealed r =
  match r.repr with Building _ -> false | Sealed _ | Complement _ -> true

let is_complement r =
  match r.repr with Complement _ -> true | _ -> false

let complement_base r =
  match r.repr with
  | Complement { base; universe_size } -> Some (base, universe_size)
  | _ -> None

let add r tuple =
  if Array.length tuple <> r.arity then
    invalid_arg "Relation.add: tuple length does not match arity";
  match r.repr with
  | Building tbl ->
      if not (Tuple.Table.mem tbl tuple) then Tuple.Table.replace tbl tuple ()
  | Sealed _ | Complement _ ->
      Error.raise_e
        (Error.Sealed_mutation
           "Relation.add: relation is sealed; copy it to start a new build \
            phase")

(* --- sealing: builder table -> columnar --- *)

(* Column access the compiler inlines: the row loops below touch every
   cell of a seal, and [Column]'s accessors are calls when the library
   is built opaque. Reads are unchecked (every index is bracketed by its
   loop); writes stay checked. *)
let uget (c : Column.t) i = Bigarray.Array1.unsafe_get c i
let set (c : Column.t) i v = Bigarray.Array1.set c i v

(* Columns holding [n] lex-sorted, deduplicated rows -> the CSR index
   over column 0. *)
let cols_of_columns columns n =
  let first i = uget columns.(0) i in
  let starts i = i = 0 || first i <> first (i - 1) in
  let distinct0 = ref 0 in
  for i = 0 to n - 1 do
    if starts i then incr distinct0
  done;
  let dict0 = Column.create !distinct0 in
  let offsets0 = Column.create (!distinct0 + 1) in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if starts i then begin
      Column.set dict0 !k (first i);
      Column.set offsets0 !k i;
      incr k
    end
  done;
  Column.set offsets0 !distinct0 n;
  { columns; rows = n; dict0; offsets0 }

(* Lex-sorted, deduplicated rows -> columns + CSR over column 0. *)
let cols_of_sorted_rows ~arity rows =
  let n = Array.length rows in
  let columns = Array.init arity (fun _ -> Column.create n) in
  Array.iteri
    (fun i t -> Array.iteri (fun j v -> Column.set columns.(j) i v) t)
    rows;
  cols_of_columns columns n

(* A column's sorted distinct values. Universe elements are dense
   non-negative integers, so when the values span at most
   [presence_span] times the row count a presence pass over
   [min, max] lists them in linear time; otherwise (negative values, a
   sparse span) they are sorted. *)
let presence_span = 8

let dict_of_column col n =
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    let v = uget col i in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  let lo = !lo and hi = !hi in
  if n > 0 && lo >= 0 && hi - lo < presence_span * n then begin
    let seen = Bytes.make (hi - lo + 1) '\000' in
    for i = 0 to n - 1 do
      Bytes.set seen (uget col i - lo) '\001'
    done;
    let distinct = ref [] in
    for o = hi - lo downto 0 do
      if Bytes.get seen o <> '\000' then distinct := (lo + o) :: !distinct
    done;
    Column.of_array (Array.of_list !distinct)
  end
  else Column.of_array (Array.of_list (List.sort_uniq Int.compare (List.init n (uget col))))

let dicts_of_cols ~arity primary =
  Array.init arity (fun j ->
      if j = 0 then primary.dict0
      else dict_of_column primary.columns.(j) primary.rows)

let sealed_of_cols ~arity primary =
  {
    primary;
    dicts = dicts_of_cols ~arity primary;
    projections = Hashtbl.create 4;
    lock = Mutex.create ();
  }

let sealed_of_rows ~arity rows =
  sealed_of_cols ~arity (cols_of_sorted_rows ~arity rows)

let of_sorted ~arity rows =
  if arity < 1 then invalid_arg "Relation.of_sorted: arity must be positive";
  Array.iteri
    (fun i t ->
      if Array.length t <> arity then
        invalid_arg "Relation.of_sorted: tuple length does not match arity";
      if i > 0 && Tuple.compare rows.(i - 1) t >= 0 then
        invalid_arg
          "Relation.of_sorted: rows must be strictly ascending (lex-sorted, \
           deduplicated)")
    rows;
  { arity; repr = Sealed (sealed_of_rows ~arity rows) }

let seal r =
  Mutex.lock seal_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock seal_lock)
    (fun () ->
      match r.repr with
      | Sealed _ | Complement _ -> ()
      | Building tbl ->
          r.repr <- Sealed (sealed_of_rows ~arity:r.arity (Tuple.sorted_keys tbl)))

let sealed_exn r =
  match r.repr with
  | Sealed s -> s
  | Building _ -> invalid_arg "Relation: sealed columnar access on a builder"
  | Complement _ ->
      invalid_arg "Relation: sealed columnar access on a complement view"

let sealed_cols r =
  match r.repr with Sealed s -> Some s.primary | _ -> None

let dict r j = (sealed_exn r).dicts.(j)

(* One cursor over main's rows, one over the sorted inserts, one over
   the sorted tombstones: a tombstone matching main's row drops it,
   otherwise the smaller of main's row and the next insert is written
   straight into the output columns. Main's rows are strictly ascending,
   so the output is too exactly when the inserts are strictly ascending
   and none equals a row of main — both checked as the merge meets
   them. *)
let of_merge ?(tick = ignore) ~main ~inserts ~deletes () =
  let s = sealed_exn main in
  let arity = main.arity in
  let src = s.primary.columns and n_main = s.primary.rows in
  let ni = Array.length inserts and nd = Array.length deletes in
  let fail msg = invalid_arg ("Relation.of_merge: " ^ msg) in
  let n_out = n_main - nd + ni in
  (* writes are bounds-checked: a tombstone missing from main raises *)
  let columns = Array.init arity (fun _ -> Column.create n_out) in
  (* main's row [i] against a tuple, lexicographically *)
  let compare_main i (t : Tuple.t) =
    let rec go j =
      if j = arity then 0
      else
        let c = Int.compare (uget src.(j) i) t.(j) in
        if c <> 0 then c else go (j + 1)
    in
    go 0
  in
  let k = ref 0 in
  let emitted () =
    incr k;
    if !k land 255 = 0 then tick ()
  in
  let emit_main i =
    for j = 0 to arity - 1 do
      set columns.(j) !k (uget src.(j) i)
    done;
    emitted ()
  in
  let emit_insert a =
    let t = inserts.(a) in
    if Array.length t <> arity then fail "tuple length does not match arity";
    if a > 0 && Tuple.compare inserts.(a - 1) t >= 0 then
      fail "inserts must be strictly ascending";
    Array.iteri (fun j v -> set columns.(j) !k v) t;
    emitted ()
  in
  let i = ref 0 and a = ref 0 and d = ref 0 in
  while !i < n_main do
    let deleted =
      !d < nd
      &&
      let c = compare_main !i deletes.(!d) in
      if c > 0 then fail "tombstones must be sorted rows of main";
      c = 0
    in
    if deleted then begin
      incr i;
      incr d
    end
    else if
      !a < ni
      &&
      let c = compare_main !i inserts.(!a) in
      if c = 0 then fail "an insert is a row of main";
      c > 0
    then begin
      emit_insert !a;
      incr a
    end
    else begin
      emit_main !i;
      incr i
    end
  done;
  while !a < ni do
    emit_insert !a;
    incr a
  done;
  if !d < nd then fail "tombstones must be sorted rows of main";
  { arity; repr = Sealed (sealed_of_cols ~arity (cols_of_columns columns n_out)) }

(* --- membership --- *)

(* Is the tuple [assignment.(scope.(0)), …] in [r]? On sealed columns,
   [lo, hi) narrows column by column to the run of the tuple's value;
   nothing is allocated outside a builder, so concurrent probes share
   no scratch. *)
let rec mem_at r scope assignment =
  match r.repr with
  | Building tbl -> Tuple.Table.mem tbl (Array.map (fun v -> assignment.(v)) scope)
  | Sealed s ->
      let lo = ref 0 and hi = ref s.primary.rows and j = ref 0 in
      while !j < Array.length scope && !lo < !hi do
        let col = s.primary.columns.(!j) and v = assignment.(scope.(!j)) in
        lo := Column.lower_bound col ~lo:!lo ~hi:!hi v;
        hi := Column.upper_bound col ~lo:!lo ~hi:!hi v;
        incr j
      done;
      !lo < !hi
  | Complement { base; universe_size } ->
      let inside = ref true and j = ref 0 in
      while !inside && !j < Array.length scope do
        let v = assignment.(scope.(!j)) in
        inside := v >= 0 && v < universe_size;
        incr j
      done;
      !inside && not (mem_at base scope assignment)

(* Identity scopes for [mem], shared and never written. *)
let identity_scopes = Array.init 9 (fun k -> Array.init k Fun.id)

let mem r tuple =
  let scope =
    if r.arity < Array.length identity_scopes then identity_scopes.(r.arity)
    else Array.init r.arity Fun.id
  in
  mem_at r scope tuple

(* --- canonical iteration: ascending lexicographic order in every phase,
   so enumeration sequences (and everything downstream: atom lists,
   candidate orders, fingerprints) are representation-independent --- *)

let iter_universal ~universe_size ~arity f =
  if universe_size > 0 then begin
    let cursor = Array.make arity 0 in
    let rec bump i =
      if i >= 0 then begin
        cursor.(i) <- cursor.(i) + 1;
        if cursor.(i) = universe_size then begin
          cursor.(i) <- 0;
          bump (i - 1)
        end
      end
    in
    let total = pow_saturating universe_size arity in
    for _ = 1 to total do
      f (Array.copy cursor);
      bump (arity - 1)
    done
  end

let iter f r =
  match r.repr with
  | Building tbl -> Array.iter f (Tuple.sorted_keys tbl)
  | Sealed s ->
      let arity = Array.length s.primary.columns in
      for i = 0 to s.primary.rows - 1 do
        f (Array.init arity (fun j -> Column.get s.primary.columns.(j) i))
      done
  | Complement { base; universe_size } ->
      (* lazy: lexicographic sweep of U^arity, skipping base members —
         never materialized. Base membership is checked against the
         sorted rows via a cursor when the base is sealed. *)
      let skip = mem base in
      iter_universal ~universe_size ~arity:r.arity (fun t ->
          if not (skip t) then f t)

let fold f r init =
  let acc = ref init in
  iter (fun t -> acc := f t !acc) r;
  !acc

let to_list r = List.rev (fold (fun t acc -> t :: acc) r [])

let of_list ~arity tuples =
  let r = create ~arity in
  List.iter (add r) tuples;
  r

(* [copy] always thaws: the copy is a fresh builder seeded with the
   source's tuples, whatever phase the source is in. Sealed data is
   immutable, so copying is the only way to resume mutation. *)
let copy r =
  let out = create ~arity:r.arity in
  iter (fun t -> add out t) r;
  out

let is_empty r = cardinality r = 0

(* --- complements --- *)

let complement_view ~universe_size r =
  match r.repr with
  | Complement { base; universe_size = u } when u = universe_size ->
      (* the complement of a complement over the same universe is the
         base itself; sealed relations are immutable, so sharing is safe *)
      base
  | _ ->
      seal r;
      { arity = r.arity; repr = Complement { base = r; universe_size } }

(* --- sorted projections (the join kernels' index) --- *)

let projection_key ~positions ~equalities =
  let buf = Buffer.create 32 in
  Array.iter (fun p -> Buffer.add_string buf (string_of_int p ^ ",")) positions;
  Buffer.add_char buf '|';
  Array.iter
    (fun (p, q) ->
      Buffer.add_string buf (string_of_int p ^ "=" ^ string_of_int q ^ ","))
    equalities;
  Buffer.contents buf

let is_identity_projection r ~positions ~equalities =
  Array.length equalities = 0
  && Array.length positions = r.arity
  && Array.for_all Fun.id (Array.mapi (fun i p -> i = p) positions)

let rec satisfies cols equalities i e =
  e = Array.length equalities
  || (let p, q = equalities.(e) in
      uget cols.(p) i = uget cols.(q) i)
     && satisfies cols equalities i (e + 1)

(* Rows [r] and [r'] of [src] compared on [positions], lexicographically. *)
let rec compare_projection src positions r r' c =
  if c = Array.length positions then 0
  else
    let col = src.(positions.(c)) in
    let d = Int.compare (uget col r) (uget col r') in
    if d <> 0 then d else compare_projection src positions r r' (c + 1)

(* The kept rows' indices are sorted into lexicographic order of their
   projection, then each index whose projection equals the last one kept
   is dropped, in place, and the columns are written straight from the
   source: no tuple per row. *)
let build_projection s ~positions ~equalities =
  let src = s.primary.columns in
  let kept =
    let out = Array.make s.primary.rows 0 and n = ref 0 in
    for i = 0 to s.primary.rows - 1 do
      if satisfies src equalities i 0 then begin
        out.(!n) <- i;
        incr n
      end
    done;
    Array.sub out 0 !n
  in
  Array.sort (fun r r' -> compare_projection src positions r r' 0) kept;
  let k = ref 0 in
  for i = 0 to Array.length kept - 1 do
    let r = kept.(i) in
    if !k = 0 || compare_projection src positions r kept.(!k - 1) 0 <> 0 then begin
      kept.(!k) <- r;
      incr k
    end
  done;
  let columns =
    Array.map
      (fun p ->
        let c = Column.create !k in
        for i = 0 to !k - 1 do
          set c i (uget src.(p) kept.(i))
        done;
        c)
      positions
  in
  cols_of_columns columns !k

let projection r ~positions ~equalities =
  let s = sealed_exn r in
  if is_identity_projection r ~positions ~equalities then s.primary
  else begin
    let key = projection_key ~positions ~equalities in
    Mutex.lock s.lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock s.lock)
      (fun () ->
        match Hashtbl.find_opt s.projections key with
        | Some p -> p
        | None ->
            let p = build_projection s ~positions ~equalities in
            Hashtbl.add s.projections key p;
            p)
  end

(* --- stats --- *)

let active_domain r =
  match r.repr with
  | Building tbl ->
      let seen = Hashtbl.create 64 in
      Tuple.Table.iter
        (fun t () -> Array.iter (fun v -> Hashtbl.replace seen v ()) t)
        tbl;
      Hashtbl.length seen
  | Sealed s ->
      (* distinct over the union of the per-column dictionaries: k-way
         merge of sorted runs, counting value changes *)
      let cursors = Array.map (fun _ -> ref 0) s.dicts in
      let count = ref 0 and last = ref min_int in
      let exception Done in
      (try
         while true do
           let best = ref max_int in
           Array.iteri
             (fun j c ->
               if !c < Column.length s.dicts.(j) then
                 best := min !best (Column.get s.dicts.(j) !c))
             cursors;
           if !best = max_int then raise Done;
           if !best <> !last then begin
             incr count;
             last := !best
           end;
           Array.iteri
             (fun j c ->
               if !c < Column.length s.dicts.(j)
                  && Column.get s.dicts.(j) !c = !best
               then incr c)
             cursors
         done
       with Done -> ());
      !count
  | Complement { universe_size; _ } ->
      (* dense view: every universe element occurs unless the view is
         empty (only used for catalog stats, never on complements) *)
      if cardinality r = 0 then 0 else universe_size

(* --- equality and printing --- *)

let equal a b =
  match (a.repr, b.repr) with
  | ( Complement { base = ba; universe_size = ua },
      Complement { base = bb; universe_size = ub } )
    when ua = ub && a.arity = b.arity ->
      (* same universe: complements agree iff the bases do *)
      let card_eq =
        (match (ba.repr, bb.repr) with
        | Sealed sa, Sealed sb -> sa.primary.rows = sb.primary.rows
        | _ -> true)
      in
      card_eq && fold (fun t acc -> acc && mem bb t) ba true
      && fold (fun t acc -> acc && mem ba t) bb true
  | _ ->
      a.arity = b.arity
      && cardinality a = cardinality b
      && fold (fun t acc -> acc && mem b t) a true

let pp fmt r =
  match r.repr with
  | Complement { universe_size; _ } when cardinality r > 10_000 ->
      Format.fprintf fmt "<complement view: U^%d \\ base, universe %d>" r.arity
        universe_size
  | _ ->
      let tuples = to_list r in
      Format.fprintf fmt "{%s}"
        (String.concat "; " (List.map Tuple.to_string tuples))
