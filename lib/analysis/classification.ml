type query_class = Cq | Dcq | Ecq_full

type regime = Rung.t

type theorem = Thm5 | Thm13 | Thm16 | Obs10 | Footnote4

type star = { existential_core : int list; free_leaves : int list }
type empty_witness = { relation : string; pos_index : int; neg_index : int }

type t = {
  query_class : query_class;
  num_vars : int;
  num_free : int;
  arity : int;
  treewidth : int;
  fhw : float;
  exact_widths : bool;
  width_certificate : int list list;
  components : int list list;
  star_size : int;
  max_star : star option;
  quantifier_free : bool;
  diseq_free : bool;
  always_empty : empty_witness option;
  regime : regime;
}

let theorem c =
  match c.regime with
  | Rung.Exact | Rung.Partial -> None
  | Rung.Fpras -> Some Thm16
  | Rung.Tree_dp -> Some Thm5
  | Rung.Generic_join -> Some Thm13

let no_fpras c = c.query_class <> Cq && c.regime <> Rung.Exact

let class_name = function Cq -> "CQ" | Dcq -> "DCQ" | Ecq_full -> "ECQ"

let regime_name = function
  | Rung.Exact -> "exact-empty"
  | Rung.Fpras -> "fpras-tree-automaton"
  | Rung.Tree_dp -> "fptras-tree-dp"
  | Rung.Generic_join -> "fptras-generic-join"
  | Rung.Partial -> "partial"

let theorem_name = function
  | Thm5 -> "Theorem 5"
  | Thm13 -> "Theorem 13"
  | Thm16 -> "Theorem 16"
  | Obs10 -> "Observation 10"
  | Footnote4 -> "footnote 4"

let describe c =
  match c.regime with
  | Rung.Exact ->
      let rel =
        match c.always_empty with Some w -> w.relation | None -> "?"
      in
      Printf.sprintf
        "always empty: negated atom over %s has its positive twin — exact \
         count 0, no counting run needed"
        rel
  | Rung.Fpras ->
      Printf.sprintf "CQ with fhw %.2f: Theorem 16 FPRAS (tree-automaton pipeline)"
        c.fhw
  | Rung.Tree_dp when c.query_class = Dcq ->
      Printf.sprintf
        "DCQ (no FPRAS, Observation 10); arity %d, tw %d: Theorem 5 FPTRAS \
         with the tree-DP engine"
        c.arity c.treewidth
  | Rung.Tree_dp ->
      Printf.sprintf
        "ECQ with negations (no FPRAS, Observation 10): Theorem 5 FPTRAS, \
         tw %d, arity %d"
        c.treewidth c.arity
  | Rung.Generic_join ->
      Printf.sprintf
        "DCQ (no FPRAS, Observation 10) of arity %d: Theorem 13 FPTRAS with \
         the generic-join engine (bounded adaptive width)"
        c.arity
  | Rung.Partial -> "best-effort partial enumeration, lower bound only"

let equal_invariants a b =
  a.query_class = b.query_class
  && a.num_vars = b.num_vars
  && a.num_free = b.num_free
  && a.arity = b.arity
  && a.treewidth = b.treewidth
  && Float.abs (a.fhw -. b.fhw) <= 1e-9
  && a.exact_widths = b.exact_widths
  && List.length a.components = List.length b.components
  && List.sort compare (List.map List.length a.components)
     = List.sort compare (List.map List.length b.components)
  && a.star_size = b.star_size
  && a.quantifier_free = b.quantifier_free
  && a.diseq_free = b.diseq_free
  && Option.is_some a.always_empty = Option.is_some b.always_empty
  && a.regime = b.regime

let pp ~var_name fmt c =
  let vars vs = String.concat ", " (List.map var_name vs) in
  Format.fprintf fmt "class:        %s (%d variables, %d free)@."
    (class_name c.query_class) c.num_vars c.num_free;
  Format.fprintf fmt "regime:       %s%s@." (regime_name c.regime)
    (match theorem c with
    | Some t -> Printf.sprintf " (%s)" (theorem_name t)
    | None -> "");
  if no_fpras c then
    Format.fprintf fmt "hardness:     no FPRAS unless NP = RP (%s)@."
      (theorem_name Obs10);
  (match c.always_empty with
  | Some w ->
      Format.fprintf fmt
        "empty:        atoms %d and %d over %s are positive/negated twins@."
        w.pos_index w.neg_index w.relation
  | None -> ());
  Format.fprintf fmt "treewidth:    %d%s@." c.treewidth
    (if c.exact_widths then "" else " (upper bound)");
  Format.fprintf fmt "fhw:          %.2f%s@." c.fhw
    (if c.exact_widths then "" else " (upper bound)");
  Format.fprintf fmt "arity:        %d@." c.arity;
  (match c.width_certificate with
  | [] -> ()
  | bags ->
      Format.fprintf fmt "bags:         %s@."
        (String.concat " | " (List.map (fun b -> "{" ^ vars b ^ "}") bags)));
  Format.fprintf fmt "star size:    %d%s@." c.star_size
    (match c.max_star with
    | Some s ->
        Printf.sprintf " (existential core {%s}, free leaves {%s})"
          (vars s.existential_core) (vars s.free_leaves)
    | None -> "");
  Format.fprintf fmt "components:   %d%s@." (List.length c.components)
    (if List.length c.components > 1 then " (cartesian product!)" else "");
  if c.quantifier_free && c.diseq_free then
    Format.fprintf fmt "note:         quantifier-free, diseq-free — exact #Hom DP applies (%s)@."
      (theorem_name Footnote4)

let to_json c =
  Json.Obj
    [
      ("class", Json.String (class_name c.query_class));
      ("regime", Json.String (regime_name c.regime));
      ( "theorem",
        match theorem c with
        | Some t -> Json.String (theorem_name t)
        | None -> Json.Null );
      ("no_fpras", Json.Bool (no_fpras c));
      ("num_vars", Json.Int c.num_vars);
      ("num_free", Json.Int c.num_free);
      ("arity", Json.Int c.arity);
      ("treewidth", Json.Int c.treewidth);
      ("fhw", Json.Float c.fhw);
      ("exact_widths", Json.Bool c.exact_widths);
      ( "width_certificate",
        Json.List
          (List.map
             (fun bag -> Json.List (List.map (fun v -> Json.Int v) bag))
             c.width_certificate) );
      ( "components",
        Json.List
          (List.map
             (fun comp -> Json.List (List.map (fun v -> Json.Int v) comp))
             c.components) );
      ("star_size", Json.Int c.star_size);
      ( "max_star",
        match c.max_star with
        | None -> Json.Null
        | Some s ->
            Json.Obj
              [
                ( "existential_core",
                  Json.List (List.map (fun v -> Json.Int v) s.existential_core)
                );
                ( "free_leaves",
                  Json.List (List.map (fun v -> Json.Int v) s.free_leaves) );
              ] );
      ("quantifier_free", Json.Bool c.quantifier_free);
      ("diseq_free", Json.Bool c.diseq_free);
      ( "always_empty",
        match c.always_empty with
        | None -> Json.Null
        | Some w ->
            Json.Obj
              [
                ("relation", Json.String w.relation);
                ("pos_index", Json.Int w.pos_index);
                ("neg_index", Json.Int w.neg_index);
              ] );
      ("plan", Json.String (describe c));
    ]
