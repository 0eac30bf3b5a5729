module Relation = Ac_relational.Relation
module Column = Ac_relational.Column
module Budget = Ac_runtime.Budget
module Gallop = Ac_kernels.Gallop
module Intset = Ac_kernels.Intset

type atom = {
  scope : int array;
  relation : Relation.t;
}

let atom scope relation =
  if Array.length scope <> Relation.arity relation then
    invalid_arg "Generic_join.atom: scope length must equal relation arity";
  { scope; relation }

(* Per-atom preprocessed index over the first-occurrence positions of the
   scope's distinct variables (in global elimination order; tuples
   violating repeated-variable equality are dropped at build time): a
   sorted columnar projection read by the leapfrog kernels. *)
type indexed = {
  vars_in_order : int array;
  cols : Relation.cols;
}

(* Complement views never get an index: materializing or even
   enumerating [U^k \ R] is exactly the blow-up the lazy views exist to
   avoid. They join as {e filter atoms}: once the last of their
   variables binds, a range check and one O(k log n) membership probe
   on the base's sealed columns decide the whole atom. *)
type filter = {
  f_scope : int array;
  f_relation : Relation.t;
}

type prepared = {
  num_vars : int;
  universe_size : int;
  order : int array;
  indexed : indexed array;
  parts_at : (int * int) array array; (* order position → (atom, level) *)
  filters_at : filter list array; (* order position → filters now decidable *)
  start_filters : filter list; (* variable-free filters, checked once *)
  budget : Budget.t; (* ticked once per search-tree node *)
  pool : state list Atomic.t;
      (* recycled run states: the oracle path runs thousands of
         tiny joins per second over one [prepared], and cursor-state
         allocation would dominate them *)
}

(* Per-run cursor state, so one [prepared] can serve concurrent runs
   (the parallel estimator shares prepares across trial domains). A
   state is owned by exactly one run at a time and returns to the pool
   on normal completion (never after an exception — a half-unwound
   cursor stack is not worth repairing). *)
and state = {
  los : int array array; (* per atom: row-range stack, one slot per level *)
  his : int array array;
  with_dom : Gallop.run array array;
      (* per order position: leapfrog cursors for that level's
         participants, preceded by a slot for the domain run *)
  no_dom : Gallop.run array array;
      (* the same run records minus the domain slot — which array a run
         uses is decided per run in [sel]/[offs] *)
  domcols : Column.t option array;
      (* per order position: lazily-created scratch column the domain
         values are copied into (capacity = universe) *)
  sel : Gallop.run array array; (* per order position: chosen cursor array *)
  offs : int array; (* 1 when the domain slot is active at that level *)
  pos : int array array; (* per order position: leapfrog cursor scratch *)
  bounds : int array array; (* per order position: value-range scratch *)
}

let scope_index a =
  let seen = Hashtbl.create 8 in
  let distinct = ref [] in
  Array.iteri
    (fun pos v ->
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.replace seen v pos;
        distinct := v :: !distinct
      end)
    a.scope;
  (seen, List.rev !distinct)

let index_atom ~position a =
  let seen, distinct = scope_index a in
  let sorted =
    List.sort (fun u v -> Int.compare position.(u) position.(v)) distinct
  in
  let positions = Array.of_list (List.map (Hashtbl.find seen) sorted) in
  let equalities = ref [] in
  Array.iteri
    (fun pos v ->
      let first = Hashtbl.find seen v in
      if pos <> first then equalities := (pos, first) :: !equalities)
    a.scope;
  Relation.seal a.relation;
  {
    vars_in_order = Array.of_list sorted;
    cols =
      Relation.projection a.relation ~positions
        ~equalities:(Array.of_list (List.rev !equalities));
  }

let validate ~num_vars atoms =
  List.iter
    (fun a ->
      Array.iter
        (fun v ->
          if v < 0 || v >= num_vars then
            invalid_arg "Generic_join: scope variable out of range")
        a.scope)
    atoms

let default_order ~num_vars sized =
  let best = Array.make num_vars max_int in
  List.iter
    (fun (scope, rows) ->
      Array.iter (fun v -> if rows < best.(v) then best.(v) <- rows) scope)
    sized;
  let vars = List.init num_vars Fun.id in
  Array.of_list (List.stable_sort (fun u v -> Int.compare best.(u) best.(v)) vars)

let prepare ~num_vars ~universe_size ?(budget = Budget.none) ?order atoms =
  validate ~num_vars atoms;
  let order =
    match order with
    | Some o ->
        if Array.length o <> num_vars then invalid_arg "Generic_join: bad order";
        Array.copy o
    | None ->
        default_order ~num_vars
          (List.map (fun a -> (a.scope, Relation.cardinality a.relation)) atoms)
  in
  let position = Array.make num_vars (-1) in
  Array.iteri (fun i v -> position.(v) <- i) order;
  if Array.exists (fun p -> p < 0) position then
    invalid_arg "Generic_join: order is not a permutation";
  let positive, complements =
    List.partition (fun a -> not (Relation.is_complement a.relation)) atoms
  in
  let indexed =
    Array.of_list (List.map (index_atom ~position) positive)
  in
  let at_level = Array.make num_vars [] in
  Array.iteri
    (fun ai idx ->
      Array.iteri
        (fun level v ->
          at_level.(position.(v)) <- (ai, level) :: at_level.(position.(v)))
        idx.vars_in_order)
    indexed;
  let filters_at = Array.make num_vars [] in
  let start_filters = ref [] in
  List.iter
    (fun a ->
      let flt = { f_scope = a.scope; f_relation = a.relation } in
      if Array.length a.scope = 0 then start_filters := flt :: !start_filters
      else begin
        let last =
          Array.fold_left (fun acc v -> max acc position.(v)) (-1) a.scope
        in
        filters_at.(last) <- flt :: filters_at.(last)
      end)
    complements;
  {
    num_vars;
    universe_size;
    order;
    indexed;
    parts_at = Array.map Array.of_list at_level;
    filters_at;
    start_filters = !start_filters;
    budget;
    pool = Atomic.make [];
  }

(* Column reads through the [Bigarray] primitive, which the compiler
   inlines even where [Column]'s accessors are opaque calls. *)
let uget (c : Column.t) i = Bigarray.Array1.unsafe_get c i

(* Read in place from [assignment]: no tuple per probe, and no shared
   scratch, so pooled states stay domain-safe. *)
let filter_ok assignment flt =
  Relation.mem_at flt.f_relation flt.f_scope assignment

let rec filters_ok assignment = function
  | [] -> true
  | flt :: rest -> filter_ok assignment flt && filters_ok assignment rest

let fresh_state p =
  let acols = Array.map (fun idx -> idx.cols) p.indexed in
  let depth idx = Array.length idx.vars_in_order in
  let los = Array.map (fun idx -> Array.make (depth idx + 1) 0) p.indexed in
  let his =
    Array.mapi
      (fun ai idx ->
        let a = Array.make (depth idx + 1) 0 in
        a.(0) <- acols.(ai).Relation.rows;
        a)
      p.indexed
  in
  let no_dom =
    Array.init p.num_vars (fun i ->
        Array.map
          (fun (ai, lvl) ->
            { Gallop.col = acols.(ai).Relation.columns.(lvl); lo = 0; hi = 0 })
          p.parts_at.(i))
  in
  let with_dom =
    (* slot 0 is the domain cursor; slots 1.. SHARE the no-dom records,
       so per-node bound rewrites are visible through either array *)
    Array.map
      (fun base ->
        Array.append [| { Gallop.col = Column.create 0; lo = 0; hi = 0 } |] base)
      no_dom
  in
  {
    los;
    his;
    with_dom;
    no_dom;
    domcols = Array.make p.num_vars None;
    sel = Array.copy no_dom;
    offs = Array.make p.num_vars 0;
    pos = Array.map (fun rs -> Array.make (max 1 (Array.length rs)) 0) with_dom;
    bounds =
      Array.map (fun rs -> Array.make (2 * max 1 (Array.length rs)) 0) with_dom;
  }

(* Treiber stack, CAS-retry via recursion. *)
let rec pool_take pool =
  match Atomic.get pool with
  | [] -> None
  | s :: rest as old ->
      if Atomic.compare_and_set pool old rest then Some s else pool_take pool

let rec pool_give pool s =
  let old = Atomic.get pool in
  if not (Atomic.compare_and_set pool old (s :: old)) then pool_give pool s

(* The one search behind {!run} and {!count}. [bulk], when given, takes
   over the last order position wherever every report resumes there,
   one atom is the only participant and no domain run or filter atom
   sits at the level: it is handed the level's leaf count — the run's
   width less the distinct disequality-partner values inside it — in
   place of one descent per candidate. *)
let search ?domains ?(reuse = false) ?(diseqs = [||]) ?project ?bulk p ~f =
  (* canonical per-variable domains (ascending, deduplicated): arrays
     already in canonical order are used as-is, without copying *)
  let domain_arr = Array.make p.num_vars None in
  (match domains with
  | None -> ()
  | Some ds ->
      Array.iteri
        (fun v d ->
          match d with
          | None -> ()
          | Some a as dom ->
              let c = Intset.canon a in
              domain_arr.(v) <- (if c == a then dom else Some c))
        ds);
  (* the order position a reported solution resumes at: the deepest of
     the projected variables [0 .. k-1] ([-1] when [k = 0], so the first
     solution ends the run); [max_int], without [project], cuts nothing *)
  let cut =
    match project with
    | None -> max_int
    | Some k ->
        let deepest = ref (-1) in
        Array.iteri (fun i v -> if v < k then deepest := i) p.order;
        !deepest
  in
  let cs =
    match pool_take p.pool with Some s -> s | None -> fresh_state p
  in
  for i = 0 to p.num_vars - 1 do
    match domain_arr.(p.order.(i)) with
    | Some arr when Array.length p.parts_at.(i) > 0 ->
        let len = Array.length arr in
        let dcol =
          match cs.domcols.(i) with
          | Some c when Column.length c >= len -> c
          | _ ->
              let c = Column.create (max p.universe_size len) in
              cs.domcols.(i) <- Some c;
              c
        in
        for k = 0 to len - 1 do
          Bigarray.Array1.set dcol k arr.(k)
        done;
        let r0 = cs.with_dom.(i).(0) in
        r0.Gallop.col <- dcol;
        r0.Gallop.lo <- 0;
        r0.Gallop.hi <- len;
        cs.sel.(i) <- cs.with_dom.(i);
        cs.offs.(i) <- 1
    | _ ->
        cs.sel.(i) <- cs.no_dom.(i);
        cs.offs.(i) <- 0
  done;
  let last = p.num_vars - 1 in
  let bulk_last =
    Option.is_some bulk && last >= 0 && cut >= last
    && Array.length p.parts_at.(last) = 1
    && domain_arr.(p.order.(last)) = None
    && p.filters_at.(last) = []
  in
  (* the variables whose values the last variable must avoid (a pair
     [(v, v)] names [v] itself, still [-1] there, so it removes nothing,
     as in [diseqs_pass]) *)
  let partners =
    if not bulk_last then [||]
    else
      let v = p.order.(last) in
      Array.of_list
        (Array.fold_right
           (fun (a, b) acc ->
             if a = v then b :: acc else if b = v then a :: acc else acc)
           diseqs [])
  in
  let assignment = Array.make p.num_vars (-1) in
  (* levels deeper than [!resume] abandon their candidates: a reported
     solution sets it to [cut] (cleared again once level [cut] regains
     control), and [f] returning [false] sets it to [-1], which no level
     clears *)
  let resume = ref max_int in
  (* [descend]/[filters_pass] live in the [rec] group rather than inside
     [assign], so the hot path allocates no closures per search node
     (the oracle layer runs thousands of these joins per second) *)
  let rec filters_pass i = filters_ok assignment p.filters_at.(i)
  (* a pair (a, b) prunes at whichever endpoint binds second (the other
     still holds the [-1] sentinel before that, which can never collide
     with a candidate value) *)
  and diseqs_pass v value =
    let ok = ref true in
    for k = 0 to Array.length diseqs - 1 do
      let a, b = diseqs.(k) in
      if (a = v && assignment.(b) = value) || (b = v && assignment.(a) = value)
      then ok := false
    done;
    !ok
  and descend i v value =
    if diseqs_pass v value then begin
      assignment.(v) <- value;
      if filters_pass i then begin
        assign (i + 1);
        if !resume = i then resume := max_int
      end
    end
  (* the last variable is the last column of its one atom, so the
     run's values are distinct and its width counts them *)
  and count_last i =
    let ai, lvl = p.parts_at.(i).(0) in
    let col = p.indexed.(ai).cols.Relation.columns.(lvl) in
    let lo = cs.los.(ai).(lvl) and hi = cs.his.(ai).(lvl) in
    let k = ref (hi - lo) in
    for j = 0 to Array.length partners - 1 do
      let x = assignment.(partners.(j)) in
      let fresh = ref true in
      for j' = 0 to j - 1 do
        if assignment.(partners.(j')) = x then fresh := false
      done;
      if !fresh then begin
        let at = Gallop.lower col ~lo ~hi x in
        if at < hi && uget col at = x then decr k
      end
    done;
    match bulk with Some leaves -> leaves !k | None -> ()
  and assign i =
    Budget.tick p.budget;
    if i = p.num_vars then begin
      let sol = if reuse then assignment else Array.copy assignment in
      resume := if f sol then cut else -1
    end
    else if i = last && bulk_last then count_last i
    else begin
      let v = p.order.(i) in
      let parts = p.parts_at.(i) in
      let nparts = Array.length parts in
      (if nparts = 0 then
         match domain_arr.(v) with
         | Some arr ->
             let n = Array.length arr in
             let k = ref 0 in
             while i <= !resume && !k < n do
               descend i v arr.(!k);
               incr k
             done
         | None ->
             let value = ref 0 in
             while i <= !resume && !value < p.universe_size do
               descend i v !value;
               incr value
             done
       else
         (* leapfrog: every participant contributes its current sorted
            run; common values arrive ascending, and their per-run bounds
            become the child cursors *)
         let runs = cs.sel.(i) and off = cs.offs.(i) in
         let los = cs.los and his = cs.his in
         for j = 0 to nparts - 1 do
           let ai, lvl = parts.(j) in
           let r = runs.(j + off) in
           r.Gallop.lo <- los.(ai).(lvl);
           r.Gallop.hi <- his.(ai).(lvl)
         done;
         Gallop.intersect_into ~pos:cs.pos.(i) ~bounds:cs.bounds.(i) runs
           (fun value bounds ->
             for j = 0 to nparts - 1 do
               let ai, lvl = parts.(j) in
               los.(ai).(lvl + 1) <- bounds.(2 * (j + off));
               his.(ai).(lvl + 1) <- bounds.((2 * (j + off)) + 1)
             done;
             descend i v value;
             i <= !resume));
      assignment.(v) <- -1
    end
  in
  if filters_ok assignment p.start_filters then assign 0;
  pool_give p.pool cs

let run ?domains ?reuse ?diseqs ?project p ~f =
  search ?domains ?reuse ?diseqs ?project p ~f

(* A bulk level charges its [k] leaves in one call, which is exactly [k]
   ticks. The per-leaf path ticks each leaf before counting it, so a
   trip at tick [c0 + m] leaves the [m - 1] leaves before it counted:
   trip points and [tally] at a trip match {!run}'s. *)
let count ?diseqs ?project ?(tally = ref 0) p =
  search ~reuse:true ?diseqs ?project p
    ~bulk:(fun k ->
      let c0 = Budget.ticks p.budget in
      match Budget.charge p.budget k with
      | () -> tally := !tally + k
      | exception (Budget.Budget_exceeded _ as e) ->
          tally := !tally + Budget.ticks p.budget - c0 - 1;
          raise e)
    ~f:(fun _ ->
      incr tally;
      true);
  !tally

let order p = Array.copy p.order

let iter ~num_vars ~universe_size ?budget ?domains ?order atoms ~f =
  run ?domains (prepare ~num_vars ~universe_size ?budget ?order atoms) ~f

let find ~num_vars ~universe_size ?budget ?domains ?order atoms =
  let result = ref None in
  iter ~num_vars ~universe_size ?budget ?domains ?order atoms ~f:(fun a ->
      result := Some a;
      false);
  !result

let exists ~num_vars ~universe_size ?budget ?domains ?order atoms =
  Option.is_some (find ~num_vars ~universe_size ?budget ?domains ?order atoms)

let solutions ~num_vars ~universe_size ?budget ?domains ?order atoms =
  let acc = ref [] in
  iter ~num_vars ~universe_size ?budget ?domains ?order atoms ~f:(fun a ->
      acc := a :: !acc;
      true);
  List.rev !acc
