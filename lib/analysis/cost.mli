(** Static cost & cardinality analysis: stats-instantiated
    fractional-edge-cover (AGM-style) output bounds plus per-rung work
    predictions.

    The width machinery already solves the fractional edge cover LP
    exactly (Definition 39, [Ac_hypergraph.Widths.fcn_rational]); this
    module {e instantiates} its optimal weights with catalog
    cardinalities and per-column distinct counts
    ({!Cardinality.relation_stats}): for a cover [x] of the query's
    hypergraph, [|Q| <= Π_e N_e^{x_e}] where [N_e] is the smallest
    matching atom projection — the classical AGM bound, computed in
    log2 space so a blow-up never overflows. Negated atoms are priced
    at their complement cardinality ([U^arity - |R|], Definition 20);
    a disequality-only variable (its singleton hyperedge matches no
    atom) costs [U].

    On top of the bounds sit per-rung work predictions:
    - Exact: the join visits one solution per distinct assignment to
      the join-order prefix ending at the deepest free variable, so it
      is priced at a bound on those prefixes times a per-prefix scan
      to the first extension, capped by the full join's cover bound;
    - Fpras: [reps × κ(ε)] samples and union rounds (the executor's
      sketch size, floor included) per automaton cell, the cells being
      the nice decomposition's [2|vars| + 1] shape nodes times the
      largest instantiated bag bound (Definition 41 applied to the
      width certificate);
    - Tree_dp and Generic_join: the DLM edge-count trial formula times
      the DP table or the instantiated bound per oracle probe.
    {!rank} orders the rungs cheapest-first; the governed planner's
    ladder ([Ladder.build]) starts at {!chosen} and appends the
    budget-aware ε-degradation steps.

    {b Typed degradation.} Instantiating the LP with hostile
    cardinalities can overflow the exact rationals; the analyzer
    catches [Ac_lp.Rat.Overflow] and degrades to a weight-1 greedy
    cover — still a sound bound — recording the event as an
    [Ac_runtime.Error.t] in {!bound.degraded} instead of crashing. *)

type rung = Rung.t = Fpras | Exact | Tree_dp | Generic_join | Partial

(** {!Rung.name}. *)
val rung_name : rung -> string

(** An instantiated output bound, in log2 space ([neg_infinity]: the
    (sub-)query is provably empty on these stats). *)
type bound = {
  log2 : float;
  exact_lp : bool;  (** the exact rational simplex produced the cover *)
  degraded : Ac_runtime.Error.t option;
      (** why [exact_lp] is false (e.g. [Numeric_overflow]) *)
}

type alternative = {
  rung : rung;
  applicable : bool;   (** e.g. the FPRAS requires a CQ *)
  guaranteed : bool;   (** meets (ε, δ) or better; [Partial] does not *)
  log2_probes : float;        (** predicted trial/repetition count *)
  log2_probe_cost : float;    (** predicted work per probe *)
  log2_cost : float;          (** total: probes + probe cost *)
  note : string;
}

type t = {
  eps : float;    (** the targets {!field-alternatives} was ranked at *)
  delta : float;
  stats : Cardinality.t;
  query_bound : bound;            (** whole-query instantiated bound *)
  component_bounds : bound list;  (** per connected component *)
  bag_bounds : bound list;        (** per width-certificate bag (Definition 41) *)
  run_bound_log2 : float;
      (** max instantiated bag bound — the columnar run bound priced
          into the Fpras rung, and with [query_bound] the cap on Exact *)
  free_prefix_log2 : float;
      (** bound on the distinct assignments to the join-order prefix
          ending at the deepest free variable: the descents Exact makes
          (less that variable when the join counts its level in bulk) *)
  extension_log2 : float;
      (** predicted scan per descent to its first extension; for a
          bulk-counted last level, log2 (1 + its disequalities) *)
  static_choice : rung;  (** the Figure-1 regime's rung *)
  is_cq : bool;
  always_empty : bool;
  num_vars : int;
  treewidth : int;
  star_size : int;
  alternatives : alternative list;  (** ranked at [(eps, delta)] *)
}

(** The variable order the exact rung's join binds in:
    [Ac_join.Generic_join.default_order] fed the catalog cardinalities,
    a negated atom sized by [Ac_relational.Relation.complement_cardinality]. *)
val join_order : stats:Cardinality.t -> Ac_query.Ecq.t -> int array

(** QL012 fires when the whole-query bound exceeds this many answers. *)
val output_blowup_threshold : float

val output_blowup_threshold_log2 : float

(** The query-only half of the analysis: for the whole query, each
    connected component and each width-certificate bag, the vertices
    some hyperedge covers, the induced edges with their matching atoms,
    and the exact edge-cover LP's outcome (optimal weights, no
    certificate, or [Ac_lp.Rat.Overflow]). It reads no database, so it
    can be computed once per query and instantiated per database
    version ([Report.analyze] memoises it). *)
type prepared

val prepare : Ac_query.Ecq.t -> Classification.t -> prepared

(** Price a prepared query against measured (or {!Cardinality.nominal})
    statistics: each cover edge at its smallest matching atom
    projection, summed under the prepared LP weights — or the weight-1
    greedy cover where the LP degraded. [eps]/[delta] default to the API
    defaults (0.25, 0.1); {!rank} re-prices the alternatives for other
    targets without re-solving any LP. *)
val instantiate :
  ?eps:float -> ?delta:float -> stats:Cardinality.t -> prepared -> t

(** [instantiate ?eps ?delta ~stats (prepare q c)]: the full analysis
    with nothing memoised. *)
val analyze :
  ?eps:float ->
  ?delta:float ->
  stats:Cardinality.t ->
  Ac_query.Ecq.t ->
  Classification.t ->
  t

(** Re-rank the alternatives at different accuracy targets (cheap: the
    bounds are target-independent). Applicable-and-guaranteed rungs
    sort first by predicted cost; ties prefer the static choice. *)
val rank : eps:float -> delta:float -> t -> alternative list

(** The cheapest applicable rung whose guarantee holds — what the
    costed planner starts the governed chain with. *)
val chosen : t -> rung

(** [2^log2] as an answer count ([0.] for provably-empty). *)
val bound_value : bound -> float

val bound_to_json : bound -> Json.t
val alternative_to_json : alternative -> Json.t
val to_json : t -> Json.t

(** The costed-alternatives table, as [acq explain --cost] prints it. *)
val pp : Format.formatter -> t -> unit
