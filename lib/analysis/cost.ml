module Ecq = Ac_query.Ecq
module Hypergraph = Ac_hypergraph.Hypergraph
module Bitset = Ac_hypergraph.Bitset
module Widths = Ac_hypergraph.Widths
module Rat = Ac_lp.Rat
module Error = Ac_runtime.Error
module Acjr = Ac_automata.Acjr

type rung = Rung.t = Fpras | Exact | Tree_dp | Generic_join | Partial

let rung_name = Rung.name

type bound = {
  log2 : float;
  exact_lp : bool;
  degraded : Error.t option;
}

type alternative = {
  rung : rung;
  applicable : bool;
  guaranteed : bool;
  log2_probes : float;
  log2_probe_cost : float;
  log2_cost : float;
  note : string;
}

type t = {
  eps : float;
  delta : float;
  stats : Cardinality.t;
  query_bound : bound;
  component_bounds : bound list;
  bag_bounds : bound list;
  run_bound_log2 : float;
  free_prefix_log2 : float;
  extension_log2 : float;
  static_choice : rung;
  is_cq : bool;
  always_empty : bool;
  num_vars : int;
  treewidth : int;
  star_size : int;
  alternatives : alternative list;
}

let output_blowup_threshold = 1e7
let output_blowup_threshold_log2 = Float.log2 output_blowup_threshold

(* ---------- instantiated fractional-edge-cover bounds ---------- *)

let log2i n = Float.log2 (float_of_int (max 1 n))

type pred_atom = {
  positive : bool;
  symbol : string;
  vars : int array;
  varset : Bitset.t;
}

let pred_atoms ~capacity q =
  List.filter_map
    (function
      | Ecq.Atom (symbol, vars) ->
          Some
            {
              positive = true;
              symbol;
              vars;
              varset = Bitset.of_list ~capacity (Array.to_list vars);
            }
      | Ecq.Neg_atom (symbol, vars) ->
          Some
            {
              positive = false;
              symbol;
              vars;
              varset = Bitset.of_list ~capacity (Array.to_list vars);
            }
      | Ecq.Diseq _ -> None)
    (Ecq.atoms q)

(* log2 of an upper bound on |π_e(R)| — the atom's relation projected to
   the variables of edge [e] (a subset of the atom's variables).

   Positive atoms: at most [min(|R|, Π_v distinct(v))], where each
   variable contributes the smallest per-column distinct count among the
   positions it occupies. Negated atoms stand for the complement
   [U^arity \ R]: exactly [U^arity - |R|] when [e] spans all the atom's
   (pairwise-distinct) variables, at most [U^|e|] otherwise. An empty
   relation under a positive atom (or a full one under a negated atom)
   yields [neg_infinity]: the join is provably empty. *)
let atom_edge_log2 ~(stats : Cardinality.t) ~universe (a : pred_atom) e =
  let u_log2 = log2i universe in
  match Cardinality.find stats a.symbol with
  | None ->
      (* not in the catalog: QL006 territory; U^|e| stays sound *)
      float_of_int (Bitset.cardinal e) *. u_log2
  | Some s when s.Cardinality.arity <> Array.length a.vars ->
      (* arity mismatch (QL006): the catalog row does not describe this
         atom — price at U^|e|, which is sound regardless *)
      float_of_int (Bitset.cardinal e) *. u_log2
  | Some s ->
      if a.positive then begin
        if s.Cardinality.cardinality = 0 then Float.neg_infinity
        else begin
          let from_distinct = ref 0.0 in
          Bitset.iter
            (fun v ->
              let best = ref max_int in
              Array.iteri
                (fun j v' ->
                  if v' = v then
                    best := min !best s.Cardinality.distinct.(j))
                a.vars;
              from_distinct := !from_distinct +. log2i !best)
            e;
          Float.min (log2i s.Cardinality.cardinality) !from_distinct
        end
      end
      else begin
        let distinct_vars = Bitset.cardinal a.varset in
        let no_repeats = distinct_vars = Array.length a.vars in
        if no_repeats && Bitset.equal e a.varset then begin
          let complement =
            (float_of_int universe ** float_of_int s.Cardinality.arity)
            -. float_of_int s.Cardinality.cardinality
          in
          if complement <= 0.0 then Float.neg_infinity
          else Float.log2 complement
        end
        else float_of_int (Bitset.cardinal e) *. u_log2
      end

(* Weight-1 greedy set cover, the typed degradation target when the
   exact rational simplex overflows: any edge set covering every vertex
   is a (integral, hence fractional) edge cover, so the summed log2
   sizes remain a sound output bound. *)
let greedy_cover_log2 ~edge_sizes ~edges covered =
  let chosen = ref 0.0 in
  let remaining = ref covered in
  let arr = Array.of_list (List.combine edges edge_sizes) in
  while not (Bitset.is_empty !remaining) do
    let best = ref None in
    Array.iter
      (fun (e, size) ->
        let gain = Bitset.cardinal (Bitset.inter e !remaining) in
        if gain > 0 then
          match !best with
          | Some (_, bs, bg) when (bg, -.bs) >= (gain, -.size) -> ()
          | _ -> best := Some (e, size, gain))
      arr;
    match !best with
    | None ->
        (* cannot happen: every vertex of [covered] lies in some edge *)
        remaining := Bitset.diff !remaining !remaining
    | Some (e, size, _) ->
        chosen := !chosen +. size;
        remaining := Bitset.diff !remaining e
  done;
  !chosen

(* The query-only half of an instantiated bound, for the sub-query
   induced by vertex set [vs]: the vertices some hyperedge reaches
   ([covered]), the hyperedges induced on them, per edge the atoms whose
   variables meet [covered] in exactly that edge, and the outcome of the
   exact fractional edge cover LP over [covered]. None of it reads the
   database, so one query's vertex sets are solved once and priced per
   database version by [bound_of_vertices]. *)
type vertex_set = {
  uncovered : int;  (* vertices of [vs] no hyperedge reaches *)
  covered : Bitset.t;
  edges : Bitset.t list;
  edge_atoms : pred_atom list list;  (* per edge, in [edges] order *)
  cover : ((int * float) list, Error.t) result;
      (* the nonzero optimal weights by edge index, or why the LP gave
         none (the bound then degrades to a greedy cover) *)
}

let prepare_vertices ~atoms h vs =
  let covered =
    List.fold_left Bitset.union
      (Bitset.create ~capacity:(Bitset.capacity vs))
      (Hypergraph.induced_edges h vs)
  in
  let covered = Bitset.inter covered vs in
  let uncovered = Bitset.cardinal (Bitset.diff vs covered) in
  if Bitset.is_empty covered then
    { uncovered; covered; edges = []; edge_atoms = []; cover = Ok [] }
  else begin
    let edges = Hypergraph.induced_edges h covered in
    let edge_atoms =
      List.map
        (fun e ->
          List.filter
            (fun a -> Bitset.equal (Bitset.inter a.varset covered) e)
            atoms)
        edges
    in
    let cover =
      match Widths.fcn_rational h covered with
      | Some (_, w) when Array.length w = List.length edges ->
          Ok
            (List.filter_map Fun.id
               (List.mapi
                  (fun i w ->
                    if Rat.sign w = 0 then None else Some (i, Rat.to_float w))
                  (Array.to_list w)))
      | Some _ | None ->
          (* uncoverable vertices were removed above; treat defensively *)
          Error (Error.Internal "edge-cover LP returned no certificate")
      | exception Rat.Overflow ->
          Error
            (Error.Numeric_overflow
               "rational edge-cover LP overflowed; bound degraded to a \
                greedy integral cover")
    in
    { uncovered; covered; edges; edge_atoms; cover }
  end

(* Instantiated output bound for a prepared vertex set: price each cover
   edge at the smallest matching atom projection, weigh it by the LP's
   optimal cover, and charge [U] per vertex no hyperedge reaches. An
   edge no atom matches — the singleton [Ecq.hypergraph] gives a
   disequality-only variable — is priced at [U^|e|]: its variables range
   over the whole universe. *)
let bound_of_vertices ~stats ~universe vs =
  let u_log2 = log2i universe in
  let base = float_of_int vs.uncovered *. u_log2 in
  if Bitset.is_empty vs.covered then
    { log2 = base; exact_lp = true; degraded = None }
  else begin
    let edge_sizes =
      List.map2
        (fun e atoms ->
          List.fold_left
            (fun acc a -> Float.min acc (atom_edge_log2 ~stats ~universe a e))
            (float_of_int (Bitset.cardinal e) *. u_log2)
            atoms)
        vs.edges vs.edge_atoms
    in
    match vs.cover with
    | Ok weights ->
        let sizes = Array.of_list edge_sizes in
        let weighted =
          List.fold_left (fun acc (i, w) -> acc +. (w *. sizes.(i))) 0.0 weights
        in
        { log2 = base +. weighted; exact_lp = true; degraded = None }
    | Error e ->
        {
          log2 = base +. greedy_cover_log2 ~edge_sizes ~edges:vs.edges vs.covered;
          exact_lp = false;
          degraded = Some e;
        }
  end

(* ---------- the exact rung's join order ----------

   The order [Generic_join.prepare] binds in, from the catalog: each
   atom sized by its relation's cardinality, a negated atom by its
   complement view's [U^arity - |R|] rows; an atom whose symbol the
   catalog lacks bounds nothing. *)
let join_order ~(stats : Cardinality.t) q =
  let sized symbol vars size =
    Option.map
      (fun s -> (vars, size s.Cardinality.cardinality))
      (Cardinality.find stats symbol)
  in
  Ac_join.Generic_join.default_order ~num_vars:(Ecq.num_vars q)
    (List.filter_map
       (function
         | Ecq.Atom (symbol, vars) -> sized symbol vars Fun.id
         | Ecq.Neg_atom (symbol, vars) ->
             sized symbol vars
               (Ac_relational.Relation.complement_cardinality
                  ~universe_size:stats.Cardinality.universe
                  ~arity:(Array.length vars))
         | Ecq.Diseq _ -> None)
       (Ecq.atoms q))

(* The exact rung's work (Lemma 48's projection as [Exact] runs it):
   the join reports each distinct assignment of the order prefix ending
   at the deepest free variable once, then abandons that subtree. So it
   pays [prefixes × extension]:
   - [prefixes]: at most the product, over the prefix variables, of the
     smallest distinct count of a column they occupy ([U] for a
     variable no positive atom holds);
   - [extension]: reaching a prefix's first extension scans one
     candidate list per remaining level. A level's list is priced at the
     smallest, over the positive atoms holding its variable, of that
     atom's average fan-out [|R| / distinct] from its largest
     already-bound column (the variable's own distinct count when none
     is bound yet).
   When the deepest free variable is the last of the order, one positive
   atom holds it and no negated atom does, the join counts that level in
   bulk ([Generic_join.count]): one binary search per disequality on the
   variable, not a scan. The level then leaves the prefix product and is
   priced at log2 (1 + its disequalities).
   Both come from the catalog alone: no LP, so re-analysing after every
   live mutation stays cheap. Returns [(log2 prefixes, log2 extension)]. *)
let projection_log2 ~(stats : Cardinality.t) q =
  let order = join_order ~stats q in
  let position = Array.make (Array.length order) 0 in
  Array.iteri (fun i v -> position.(v) <- i) order;
  let depth =
    List.fold_left
      (fun acc v -> max acc (position.(v) + 1))
      0
      (List.init (Ecq.num_free q) Fun.id)
  in
  let last = Array.length order - 1 in
  let bulk_diseqs =
    if last < 0 || depth <> last + 1 then None
    else
      let v = order.(last) in
      let holds vars = Array.mem v vars in
      let atoms = List.sort_uniq compare (Ecq.atoms q) in
      let count p = List.length (List.filter p atoms) in
      if
        count (function Ecq.Atom (_, vars) -> holds vars | _ -> false) = 1
        && count (function Ecq.Neg_atom (_, vars) -> holds vars | _ -> false) = 0
      then
        Some
          (count (function
            | Ecq.Diseq (a, b) -> a = v || b = v
            | _ -> false))
      else None
  in
  let positives =
    List.filter_map
      (function
        | Ecq.Atom (symbol, vars) -> (
            match Cardinality.find stats symbol with
            | Some s when s.Cardinality.arity = Array.length vars -> Some (s, vars)
            | _ -> None)
        | Ecq.Neg_atom _ | Ecq.Diseq _ -> None)
      (Ecq.atoms q)
  in
  (* candidates for [v] once the variables [bound] accepts are bound *)
  let candidates ~bound v =
    List.fold_left
      (fun acc ((s : Cardinality.relation_stats), vars) ->
        let own = ref Float.infinity and key = ref 0 in
        Array.iteri
          (fun j w ->
            let d = s.Cardinality.distinct.(j) in
            if w = v then own := Float.min !own (float_of_int d)
            else if bound w then key := max !key d)
          vars;
        if !own = Float.infinity then acc
        else if !key = 0 then Float.min acc !own
        else
          Float.min acc
            (Float.min !own
               (Float.max 1.0
                  (float_of_int s.Cardinality.cardinality /. float_of_int !key))))
      (float_of_int stats.Cardinality.universe)
      positives
  in
  let prefix_end = if bulk_diseqs = None then depth else last in
  let prefixes = ref 0.0 and scans = ref 0.0 in
  Array.iteri
    (fun i v ->
      if i < prefix_end then
        prefixes := !prefixes +. Float.log2 (candidates ~bound:(fun _ -> false) v)
      else if i >= depth then
        scans := !scans +. candidates ~bound:(fun w -> position.(w) < i) v)
    order;
  match bulk_diseqs with
  | Some d -> (!prefixes, Float.log2 (float_of_int (1 + d)))
  | None -> (!prefixes, Float.log2 (Float.max 1.0 !scans))

(* ---------- per-rung work predictions ---------- *)

let log2_inv_eps2 eps =
  let eps = Float.max 1e-9 (Float.min 1.0 eps) in
  -2.0 *. Float.log2 eps

let clamp0 x = if x < 0.0 then 0.0 else x

let rank ~eps ~delta t =
  let universe = t.stats.Cardinality.universe in
  let u_log2 = log2i universe in
  let star = float_of_int (min t.star_size 24) in
  let sampling_probes reps =
    Float.log2 (float_of_int reps) +. log2_inv_eps2 eps +. (2.0 *. star)
  in
  let mk rung ~applicable ~guaranteed ~probes ~probe_cost note =
    {
      rung;
      applicable;
      guaranteed;
      log2_probes = probes;
      log2_probe_cost = probe_cost;
      log2_cost =
        (if Float.is_finite probes || Float.is_finite probe_cost then
           probes +. probe_cost
         else Float.neg_infinity);
      note;
    }
  in
  let exact_alt =
    let join = Float.max t.query_bound.log2 t.run_bound_log2 in
    if t.always_empty then
      mk Exact ~applicable:true ~guaranteed:true ~probes:0.0
        ~probe_cost:Float.neg_infinity "statically empty: exact count 0"
    else if t.free_prefix_log2 +. t.extension_log2 < join then
      mk Exact ~applicable:true ~guaranteed:true ~probes:t.free_prefix_log2
        ~probe_cost:t.extension_log2
        "one descent per distinct free prefix of the join order, to its \
         first extension"
    else
      mk Exact ~applicable:true ~guaranteed:true ~probes:0.0 ~probe_cost:join
        "join + projection, bounded by the instantiated cover bound"
  in
  let fpras_alt =
    mk Fpras ~applicable:t.is_cq ~guaranteed:true
      ~probes:
        (Float.log2 (float_of_int (Acjr.repetitions_for ~delta))
        +. Float.log2 (float_of_int (Acjr.sketch_size_for ~eps)))
      ~probe_cost:
        (clamp0 t.run_bound_log2 +. Float.log2 (float_of_int ((2 * t.num_vars) + 1)))
      (if t.is_cq then
         "Theorem 16 sketch pipeline: reps x kappa(eps) samples per cell; \
          cells are 2|vars|+1 shape nodes x the max instantiated bag bound"
       else "requires a CQ (Observation 10)")
  in
  let ec_reps = Ac_dlm.Edge_count.repetitions_for ~delta in
  let tree_alt =
    mk Tree_dp ~applicable:true ~guaranteed:true
      ~probes:(sampling_probes ec_reps)
      ~probe_cost:(float_of_int (t.treewidth + 1) *. u_log2)
      "Theorem 5 FPTRAS; DP table is |U|^(tw+1) per oracle probe"
  in
  let generic_alt =
    mk Generic_join ~applicable:true ~guaranteed:true
      ~probes:(sampling_probes ec_reps)
      ~probe_cost:(clamp0 t.query_bound.log2)
      "Theorem 13 FPTRAS; generic join runs within the instantiated \
       AGM bound"
  in
  let partial_alt =
    mk Partial ~applicable:true ~guaranteed:false ~probes:0.0
      ~probe_cost:(clamp0 t.query_bound.log2)
      "best-effort enumeration, lower bound only"
  in
  let priority a = if a.rung = t.static_choice then -1 else Rung.priority a.rung in
  let order a b =
    match (a.applicable && a.guaranteed, b.applicable && b.guaranteed) with
    | true, false -> -1
    | false, true -> 1
    | _ ->
        let c = Float.compare a.log2_cost b.log2_cost in
        if c <> 0 then c else Stdlib.compare (priority a) (priority b)
  in
  List.sort order [ exact_alt; fpras_alt; tree_alt; generic_alt; partial_alt ]

let chosen t =
  match List.find_opt (fun a -> a.applicable && a.guaranteed) t.alternatives with
  | Some a -> a.rung
  | None -> Exact

(* ---------- prepare once per query, instantiate per database ---------- *)

type prepared = {
  query : Ecq.t;
  classification : Classification.t;
  query_set : vertex_set option;  (* [None]: statically empty *)
  component_sets : vertex_set list;
  bag_sets : vertex_set list;
}

let prepare q (c : Classification.t) =
  let h = Ecq.hypergraph q in
  let capacity = Hypergraph.num_vertices h in
  let atoms = pred_atoms ~capacity q in
  let prepare_list vs = prepare_vertices ~atoms h (Bitset.of_list ~capacity vs) in
  {
    query = q;
    classification = c;
    query_set =
      (if c.Classification.always_empty <> None then None
       else Some (prepare_vertices ~atoms h (Bitset.full ~capacity)));
    component_sets = List.map prepare_list c.Classification.components;
    bag_sets = List.map prepare_list c.Classification.width_certificate;
  }

let instantiate ?(eps = 0.25) ?(delta = 0.1) ~stats p =
  let q = p.query and c = p.classification in
  let universe = stats.Cardinality.universe in
  let bound_of = bound_of_vertices ~stats ~universe in
  let query_bound =
    match p.query_set with
    | None -> { log2 = Float.neg_infinity; exact_lp = true; degraded = None }
    | Some vs -> bound_of vs
  in
  let component_bounds = List.map bound_of p.component_sets in
  let bag_bounds = List.map bound_of p.bag_sets in
  let run_bound_log2 =
    match bag_bounds with
    | [] ->
        (* no exact certificate: fall back to fhw times the largest
           relation, the Definition 41 shape of the run bound *)
        let max_card =
          List.fold_left
            (fun acc (s : Cardinality.relation_stats) ->
              max acc s.Cardinality.cardinality)
            1 stats.Cardinality.stats
        in
        c.Classification.fhw *. log2i max_card
    | bs -> List.fold_left (fun acc b -> Float.max acc b.log2) 0.0 bs
  in
  let free_prefix_log2, extension_log2 = projection_log2 ~stats q in
  let t =
    {
      eps;
      delta;
      stats;
      query_bound;
      component_bounds;
      bag_bounds;
      run_bound_log2;
      free_prefix_log2;
      extension_log2;
      static_choice = c.Classification.regime;
      is_cq = c.Classification.query_class = Classification.Cq;
      always_empty = c.Classification.always_empty <> None;
      num_vars = Ecq.num_vars q;
      treewidth = c.Classification.treewidth;
      star_size = c.Classification.star_size;
      alternatives = [];
    }
  in
  { t with alternatives = rank ~eps ~delta t }

let analyze ?eps ?delta ~stats q c = instantiate ?eps ?delta ~stats (prepare q c)

(* ---------- rendering ---------- *)

(* The bound as an answer count, for messages: 2^log2, +inf-safe. *)
let bound_value b = if Float.is_finite b.log2 then Float.pow 2.0 b.log2 else
    if b.log2 = Float.neg_infinity then 0.0 else Float.infinity

(* A log2 quantity: [-1e9] for log2 0 (provably empty: no work), [null]
   for +inf (unbounded). *)
let log2_to_json x =
  if Float.is_finite x then Json.Float x
  else if x = Float.neg_infinity then Json.Float (-1e9)
  else Json.Null

let bound_to_json b =
  Json.Obj
    [
      ("log2", log2_to_json b.log2);
      ("value", if Float.is_finite (bound_value b) then Json.Float (bound_value b) else Json.Null);
      ("exact_lp", Json.Bool b.exact_lp);
      ( "degraded",
        match b.degraded with
        | None -> Json.Null
        | Some e ->
            Json.Obj
              [
                ("class", Json.String (Error.class_name e));
                ("message", Json.String (Error.message e));
              ] );
    ]

let alternative_to_json a =
  Json.Obj
    [
      ("rung", Json.String (rung_name a.rung));
      ("applicable", Json.Bool a.applicable);
      ("guaranteed", Json.Bool a.guaranteed);
      ("log2_probes", log2_to_json a.log2_probes);
      ("log2_probe_cost", log2_to_json a.log2_probe_cost);
      ("log2_cost", log2_to_json a.log2_cost);
      ("note", Json.String a.note);
    ]

let to_json t =
  Json.Obj
    [
      ("eps", Json.Float t.eps);
      ("delta", Json.Float t.delta);
      ("nominal_stats", Json.Bool t.stats.Cardinality.nominal);
      ("query_bound", bound_to_json t.query_bound);
      ("component_bounds", Json.List (List.map bound_to_json t.component_bounds));
      ("bag_bounds", Json.List (List.map bound_to_json t.bag_bounds));
      ("run_bound_log2", log2_to_json t.run_bound_log2);
      ("free_prefix_log2", log2_to_json t.free_prefix_log2);
      ("extension_log2", log2_to_json t.extension_log2);
      ("static_choice", Json.String (rung_name t.static_choice));
      ("chosen", Json.String (rung_name (chosen t)));
      ("alternatives", Json.List (List.map alternative_to_json t.alternatives));
      ("stats", Cardinality.to_json t.stats);
    ]

let pp fmt t =
  let b = t.query_bound in
  Format.fprintf fmt "bound:        %s answers (instantiated edge cover%s)@."
    (if b.log2 = Float.neg_infinity then "0"
     else Printf.sprintf "<= %.3g" (bound_value b))
    (if b.exact_lp then ", exact LP" else ", degraded to greedy cover");
  if t.stats.Cardinality.nominal then
    Format.fprintf fmt "stats:        nominal (no database given: 10^6 rows \
                        per relation assumed)@.";
  Format.fprintf fmt
    "@[<v 2>alternatives (eps %.3g, delta %.3g; cheapest guaranteed rung wins):@,"
    t.eps t.delta;
  Format.fprintf fmt "%-14s %-10s %-10s %-10s %s@," "rung" "log2cost"
    "probes" "guarantee" "note";
  List.iter
    (fun a ->
      Format.fprintf fmt "%-14s %-10s %-10s %-10s %s@,"
        (rung_name a.rung)
        (Printf.sprintf "%.1f" a.log2_cost)
        (Printf.sprintf "%.1f" a.log2_probes)
        (if not a.applicable then "n/a"
         else if a.guaranteed then "yes"
         else "lower-bound")
        a.note)
    t.alternatives;
  Format.fprintf fmt "@]@.";
  Format.fprintf fmt "chosen:       %s%s@."
    (rung_name (chosen t))
    (if chosen t = t.static_choice then " (agrees with the static plan)"
     else Printf.sprintf " (static plan: %s)" (rung_name t.static_choice))
