(** The Hamiltonian-path construction of Observation 10.

    The DCQ [φ(x₁..x_n) = ⋀ E(x_i, x_{i+1}) ∧ ⋀_{i<j} x_i ≠ x_j] has
    treewidth 1 and arity 2, yet its answers over [D(G)] are exactly the
    Hamiltonian paths of [G] — so no FPRAS exists for bounded-treewidth
    DCQs unless NP = RP. The FPTRAS of Theorem 5 still applies: its cost
    is exponential in [‖φ‖] (= in [n]) but polynomial in [‖D‖], which is
    what experiment E4 measures. *)

(** [query n] — Observation 10's query for [n]-vertex graphs ([n ≥ 2]). *)
val query : int -> Ac_query.Ecq.t

val database_of : Ac_workload.Graph.t -> Ac_relational.Structure.t

(** Ground truth by Held–Karp subset DP (counts each undirected
    Hamiltonian path once per direction, like the query's answers). *)
val exact_paths : Ac_workload.Graph.t -> int

(** Exact answer count through the query encoding. *)
val exact_via_query : Ac_workload.Graph.t -> int

(** FPTRAS on the Hamiltonian query. Raises on failure, like
    {!Fptras.approx_count}. *)
val approx_via_query :
  ?budget:Ac_runtime.Budget.t ->
  exec:Ac_exec.Engine.t ->
  ?engine:Colour_oracle.engine ->
  ?rounds:int ->
  eps:float ->
  delta:float ->
  Ac_workload.Graph.t ->
  Fptras.result
