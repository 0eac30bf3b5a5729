module Ecq = Ac_query.Ecq
module Structure = Ac_relational.Structure
module Relation = Ac_relational.Relation
module D = Diagnostic

let atom_to_string q = function
  | Ecq.Atom (name, vs) | Ecq.Neg_atom (name, vs) ->
      Printf.sprintf "%s(%s)" name
        (String.concat ", "
           (Array.to_list (Array.map (Ecq.var_name q) vs)))
  | Ecq.Diseq (i, j) ->
      Printf.sprintf "%s != %s" (Ecq.var_name q i) (Ecq.var_name q j)

let span_of spans idx =
  match spans with
  | Some spans when idx >= 0 && idx < Array.length spans ->
      let start, stop = spans.(idx) in
      Some { D.start; stop }
  | _ -> None

let diag ?span ?theorem code severity message =
  { D.code; severity; span; message; theorem }

(* QL001 — an existential variable with exactly one occurrence, inside a
   positive atom, is pure projection: the relation could be projected
   before counting. *)
let unused_variables ~spans q acc =
  let free = Ecq.num_free q in
  let n = Ecq.num_vars q in
  let occurrences = Array.make n 0 in
  let home = Array.make n (-1) in
  let positive_home = Array.make n false in
  List.iteri
    (fun idx atom ->
      let record positive vs =
        Array.iter
          (fun v ->
            occurrences.(v) <- occurrences.(v) + 1;
            home.(v) <- idx;
            positive_home.(v) <- positive)
          vs
      in
      match atom with
      | Ecq.Atom (_, vs) -> record true vs
      | Ecq.Neg_atom (_, vs) -> record false vs
      | Ecq.Diseq (i, j) -> record false [| i; j |])
    (Ecq.atoms q);
  let atoms = Array.of_list (Ecq.atoms q) in
  let found = ref acc in
  for v = free to n - 1 do
    if occurrences.(v) = 1 && positive_home.(v) then
      found :=
        diag
          ?span:(span_of spans home.(v))
          D.Unused_variable D.Hint
          (Printf.sprintf
             "existential variable %s occurs only in %s: it is pure \
              projection — project the relation before counting"
             (Ecq.var_name q v)
             (atom_to_string q atoms.(home.(v))))
        :: !found
  done;
  !found

(* QL002 — > 1 connected component: the answer count is a product of the
   per-component counts; the joint query wastes budget. *)
let disconnected (c : Classification.t) acc =
  match c.Classification.components with
  | _ :: _ :: _ as comps ->
      diag D.Disconnected D.Warning
        (Printf.sprintf
           "query splits into %d independent components: the answer set is \
            a cartesian product — count each component separately and \
            multiply"
           (List.length comps))
      :: acc
  | _ -> acc

(* QL003 — duplicate disequalities (the contradictory x != x form is
   caught at parse time and reported on the text path). *)
let degenerate_diseqs ~spans q acc =
  let seen = Hashtbl.create 8 in
  let found = ref acc in
  List.iteri
    (fun idx atom ->
      match atom with
      | Ecq.Diseq (i, j) ->
          let key = (min i j, max i j) in
          (match Hashtbl.find_opt seen key with
          | Some first ->
              found :=
                diag
                  ?span:(span_of spans idx)
                  D.Diseq_degenerate D.Warning
                  (Printf.sprintf
                     "duplicate disequality %s (already stated as atom %d)"
                     (atom_to_string q atom) first)
                :: !found
          | None -> Hashtbl.replace seen key idx)
      | _ -> ())
    (Ecq.atoms q);
  !found

(* QL004 — identical atoms (same polarity, symbol, argument tuple). *)
let duplicate_atoms ~spans q acc =
  let seen = Hashtbl.create 8 in
  let found = ref acc in
  List.iteri
    (fun idx atom ->
      match atom with
      | Ecq.Atom (name, vs) | Ecq.Neg_atom (name, vs) ->
          let polarity =
            match atom with Ecq.Atom _ -> `Pos | _ -> `Neg
          in
          let key = (polarity, name, Array.to_list vs) in
          (match Hashtbl.find_opt seen key with
          | Some first ->
              found :=
                diag
                  ?span:(span_of spans idx)
                  D.Duplicate_atom D.Warning
                  (Printf.sprintf "duplicate atom %s (already stated as atom %d)"
                     (atom_to_string q atom) first)
                :: !found
          | None -> Hashtbl.replace seen key idx)
      | Ecq.Diseq _ -> ())
    (Ecq.atoms q);
  !found

(* QL005 — the classification's static-emptiness witness. *)
let negated_twin ~spans q (c : Classification.t) acc =
  match c.Classification.always_empty with
  | Some w ->
      let atoms = Array.of_list (Ecq.atoms q) in
      diag
        ?span:(span_of spans w.Classification.neg_index)
        ~theorem:"Definition 1 semantics"
        D.Negated_twin D.Error
        (Printf.sprintf
           "negated atom %s contradicts its positive twin (atom %d): the \
            query is always empty — the exact count is 0"
           (atom_to_string q atoms.(w.Classification.neg_index))
           w.Classification.pos_index)
      :: acc
  | None -> acc

(* QL006 — signature containment against a concrete database. *)
let signature_mismatch ~db q acc =
  List.fold_left
    (fun acc (name, arity) ->
      if not (Structure.mem_symbol db name) then
        diag D.Signature_mismatch D.Error
          (Printf.sprintf "relation %s/%d is missing from the database" name
             arity)
        :: acc
      else
        let a = Structure.arity_of db name in
        if a <> arity then
          diag D.Signature_mismatch D.Error
            (Printf.sprintf
               "relation %s has arity %d in the query but %d in the database"
               name arity a)
          :: acc
        else acc)
    acc (Ecq.signature q)

(* QL007 — large quantified star size: each colour-coded trial must hit
   all free leaves of one existential component, so the Lemma 22 colour
   budget (4^{|Δ'|}-style) grows with the dominated star size. *)
let star_size q (c : Classification.t) acc =
  ignore q;
  if c.Classification.star_size >= Classify.star_warn_threshold then
    let witness =
      match c.Classification.max_star with
      | Some s ->
          Printf.sprintf " (component of %d existential variables carries %d free leaves)"
            (List.length s.Classification.existential_core)
            (List.length s.Classification.free_leaves)
      | None -> ""
    in
    diag ~theorem:"Theorem 5 / Lemma 22" D.Star_size D.Warning
      (Printf.sprintf
         "quantified star size %d ≥ %d: FPTRAS trial cost is exponential in \
          the dominated star size%s"
         c.Classification.star_size Classify.star_warn_threshold witness)
    :: acc
  else acc

(* QL008 — width beyond the exact-computation comfort zone. *)
let width_blowup (c : Classification.t) acc =
  let tw_high = c.Classification.treewidth >= Classify.width_warn_threshold in
  let fhw_high = c.Classification.fhw >= Classify.fhw_warn_threshold in
  if tw_high || fhw_high then
    diag ~theorem:"Theorems 8/14 lower bounds" D.Width_blowup D.Warning
      (Printf.sprintf
         "treewidth %d, fhw %.2f exceed the exact-computation threshold \
          (tw %d / fhw %.1f): DP tables scale like |U|^(tw+1) — expect the \
          budget to trip on non-trivial databases"
         c.Classification.treewidth c.Classification.fhw
         Classify.width_warn_threshold Classify.fhw_warn_threshold)
    :: acc
  else acc

(* QL009 — a variable not guarded by any positive atom ranges over the
   whole universe (complements/diseqs only constrain, never ground). *)
let unguarded_variables ~spans q acc =
  let n = Ecq.num_vars q in
  let guarded = Array.make n false in
  let first_home = Array.make n (-1) in
  List.iteri
    (fun idx atom ->
      let touch vs =
        Array.iter
          (fun v -> if first_home.(v) < 0 then first_home.(v) <- idx)
          vs
      in
      match atom with
      | Ecq.Atom (_, vs) ->
          touch vs;
          Array.iter (fun v -> guarded.(v) <- true) vs
      | Ecq.Neg_atom (_, vs) -> touch vs
      | Ecq.Diseq (i, j) -> touch [| i; j |])
    (Ecq.atoms q);
  let found = ref acc in
  for v = n - 1 downto 0 do
    if not guarded.(v) then
      found :=
        diag
          ?span:(span_of spans first_home.(v))
          D.Unguarded_variable D.Warning
          (Printf.sprintf
             "variable %s is not guarded by any positive atom: it ranges \
              over the entire universe, inflating every enumeration"
             (Ecq.var_name q v))
        :: !found
  done;
  !found

(* QL010 — a positive atom over a relation that is empty in this
   database: the query answers nothing here (db-specific, so Warning,
   not Error — the query itself is fine). *)
let empty_relations ~db ~spans q acc =
  let reported = Hashtbl.create 4 in
  let found = ref acc in
  List.iteri
    (fun idx atom ->
      match atom with
      | Ecq.Atom (name, _)
        when Structure.mem_symbol db name && not (Hashtbl.mem reported name) ->
          let rel = Structure.relation db name in
          if Relation.cardinality rel = 0 then begin
            Hashtbl.replace reported name ();
            found :=
              diag
                ?span:(span_of spans idx)
                D.Empty_relation D.Warning
                (Printf.sprintf
                   "relation %s is empty in this database: the query has no \
                    answers here"
                   name)
              :: !found
          end
      | _ -> ())
    (Ecq.atoms q);
  !found

(* QL012 — the instantiated fractional-edge-cover bound (Definition 39
   with catalog cardinalities) predicts an output blow-up: the bound is
   the witness, and a cartesian split makes the product shape explicit.
   Only fires on measured stats — a nominal instantiation would warn on
   every wide query. *)
let output_blowup ~(cost : Cost.t) (c : Classification.t) acc =
  let b = cost.Cost.query_bound in
  if
    (not cost.Cost.stats.Cardinality.nominal)
    && b.Cost.log2 >= Cost.output_blowup_threshold_log2
  then
    let cartesian =
      match c.Classification.components with
      | _ :: _ :: _ as comps ->
          Printf.sprintf
            " (cartesian product of %d components multiplies the \
             per-component bounds)"
            (List.length comps)
      | _ -> ""
    in
    diag ~theorem:"Definition 39 (fractional edge cover)" D.Output_blowup
      D.Warning
      (Printf.sprintf
         "instantiated edge-cover bound admits up to %.3g answers \
          (threshold %.0e): materialising or enumerating the output can \
          blow up%s%s"
         (Cost.bound_value b) Cost.output_blowup_threshold cartesian
         (if b.Cost.exact_lp then "" else "; bound from a degraded greedy cover"))
    :: acc
  else acc

(* QL011 — quantifier-free, disequality-free: counting reduces to the
   footnote 4 #Hom DP, exact in polynomial time for bounded treewidth. *)
let quantifier_free (c : Classification.t) acc =
  if
    c.Classification.quantifier_free && c.Classification.diseq_free
    && c.Classification.always_empty = None
  then
    diag ~theorem:"footnote 4 (Dalmau–Jonsson)" D.Quantifier_free D.Hint
      "quantifier-free and disequality-free: exact counting is \
       fixed-parameter tractable — prefer --method exact over sampling"
    :: acc
  else acc

let run ?db ?cost ?spans q (c : Classification.t) =
  let acc = [] in
  let acc = unused_variables ~spans q acc in
  let acc = disconnected c acc in
  let acc = degenerate_diseqs ~spans q acc in
  let acc = duplicate_atoms ~spans q acc in
  let acc = negated_twin ~spans q c acc in
  let acc = match db with Some db -> signature_mismatch ~db q acc | None -> acc in
  let acc = star_size q c acc in
  let acc = width_blowup c acc in
  let acc = unguarded_variables ~spans q acc in
  let acc =
    match db with Some db -> empty_relations ~db ~spans q acc | None -> acc
  in
  let acc = quantifier_free c acc in
  let acc = match cost with Some cost -> output_blowup ~cost c acc | None -> acc in
  List.sort D.compare acc
