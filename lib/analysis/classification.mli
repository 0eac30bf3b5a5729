(** The Figure 1 classification of a query, as a typed record.

    Where the planner used to carry a free-text [reason], this record
    names the governing theorem and the structural facts it rests on —
    query class, width measures, quantified star size — together with
    machine-readable witnesses (the extremal star, the connected
    components, the width certificate bags). {!describe} pretty-prints
    it back into the one-line plan reason, so plan output and
    [acq explain] can never disagree. *)

type query_class = Cq | Dcq | Ecq_full

(** The rung Figure 1 assigns: [Exact] for a statically empty query
    (exact 0, no counting run), [Fpras] for a CQ (Theorem 16), [Tree_dp]
    in Theorem 5's bounded-arity regime, [Generic_join] in Theorem 13's
    unbounded-arity regime. Never [Partial]. *)
type regime = Rung.t

type theorem = Thm5 | Thm13 | Thm16 | Obs10 | Footnote4

(** Witness for the quantified-star-size measure: one connected component
    of existential variables and the free variables attached to it. *)
type star = { existential_core : int list; free_leaves : int list }

(** Witness that the query is statically empty (QL005): atom indices of
    the positive atom and its negated twin. *)
type empty_witness = { relation : string; pos_index : int; neg_index : int }

type t = {
  query_class : query_class;
  num_vars : int;
  num_free : int;
  arity : int;          (** max atom arity = hyperedge size of [H(φ)] *)
  treewidth : int;      (** exact when [exact_widths] *)
  fhw : float;          (** exact when [exact_widths] *)
  exact_widths : bool;  (** widths are exact (≤ 14 variables) *)
  width_certificate : int list list;
      (** bags of the witnessing tree decomposition (exact case), else
          the bags of the heuristic decomposition *)
  components : int list list;
      (** connected components of the variables (atoms and disequalities
          both connect); > 1 component ⇒ cartesian product (QL002) *)
  star_size : int;      (** quantified star size bound; 0 without ∃-vars *)
  max_star : star option;  (** the star realising [star_size] *)
  quantifier_free : bool;
  diseq_free : bool;
  always_empty : empty_witness option;
  regime : regime;
}

(** Governing upper-bound theorem; [None] for the statically empty
    regime (the count is 0 by §1.1 semantics alone). *)
val theorem : t -> theorem option

(** Observation 10 applies: no FPRAS unless NP = RP (any disequality or
    negation). *)
val no_fpras : t -> bool

val class_name : query_class -> string
val regime_name : regime -> string
val theorem_name : theorem -> string

(** The one-line plan reason, derived from the record — the [plan:]
    line of [acq count] and [acq explain]. *)
val describe : t -> string

(** Classification is a function of the query's structure only, so it is
    invariant under variable renaming; [equal_invariants] compares every
    field that carries no variable-index witness. *)
val equal_invariants : t -> t -> bool

(** Multi-line rendering for [acq explain]; [var_name] maps variable
    indices to display names. *)
val pp : var_name:(int -> string) -> Format.formatter -> t -> unit

val to_json : t -> Json.t
