(** Hypergraph width measures (Definitions 32, 33, 37, 39, 41; Lemma 12).

    - [fcn]: fractional edge cover number of an induced sub-hypergraph, by
      linear programming (Definition 39).
    - [fhw_*]: fractional hypertreewidth — of a given decomposition, and
      exact for small hypergraphs via the monotone f-width subset DP.
    - [hw_*]: (integral) hypertreewidth surrogates — the edge-cover width
      of a decomposition (exact small / greedy), an upper bound on
      Definition 37's hw.
    - [adaptive_width_bounds]: certified interval [lo, hi] with
      lo ≤ aw(H) ≤ hi. The upper bound is fhw(H) (weak LP duality:
      μ(B) ≤ fcn(H[B]) for every fractional independent set μ), the lower
      bound maximises μ-width over a family of candidate fractional
      independent sets (LP-optimal, uniform, and per-vertex scaled ones).
      On bounded-arity families both collapse against treewidth as
      Observation 34 predicts. *)

(** [fcn h x] = fractional edge cover number of [H[X]], or [infinity] if a
    vertex of [x] lies in no hyperedge. Also returns the LP weights over
    [Hypergraph.induced_edges h x] (in that order). Computed by the exact
    rational simplex and converted at the boundary. *)
val fcn : Hypergraph.t -> Bitset.t -> float * float array

(** Exact rational fcn and cover weights; [None] when a vertex of [x] is
    uncoverable. *)
val fcn_rational :
  Hypergraph.t -> Bitset.t -> (Ac_lp.Rat.t * Ac_lp.Rat.t array) option

(** Minimum number of hyperedges needed to cover [x] (exact for up to 20
    candidate edges, greedy beyond); [max_int] if uncoverable. *)
val integral_cover_number : Hypergraph.t -> Bitset.t -> int

(** Max over bags of [fcn] (Definition 41 applied to a decomposition). *)
val fhw_of_decomposition : Hypergraph.t -> Tree_decomposition.t -> float

(** Exact fractional hypertreewidth for small hypergraphs (≤ 18 vertices)
    via the subset DP; returns the width and a witness decomposition. *)
val fhw_exact : Hypergraph.t -> float * Tree_decomposition.t

(** Heuristic fhw upper bound for larger hypergraphs: fcn-width of the
    min-fill decomposition. *)
val fhw_upper : Hypergraph.t -> float

(** Max over bags of the integral cover number (hypertreewidth-style width
    of this decomposition, an upper bound on hw(H)). *)
val hw_of_decomposition : Hypergraph.t -> Tree_decomposition.t -> int

(** Exact generalised hypertreewidth for small hypergraphs via the subset
    DP with integral cover cost; an upper bound for Definition 37's hw. *)
val ghw_exact : Hypergraph.t -> float

(** Maximum-weight fractional independent set (Definition 33): total
    weight and the weight vector. Computed by the exact rational simplex
    and converted at the boundary, like {!fcn}; both raise
    [Ac_lp.Rat.Overflow] when an exact pivot leaves native ints. *)
val max_fractional_independent_set : Hypergraph.t -> float * float array

(** [mu_width h mu] = μ-width of [H] (Definition 32 with f = μ), exact for
    small hypergraphs. *)
val mu_width : Hypergraph.t -> float array -> float

(** Certified bounds [lo, hi] on adaptive width (see module docstring). *)
val adaptive_width_bounds : Hypergraph.t -> float * float

(** [is_fractional_independent_set h mu] checks Definition 33. *)
val is_fractional_independent_set : ?tolerance:float -> Hypergraph.t -> float array -> bool
