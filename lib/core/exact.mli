(** Exact answer counting — the baselines every approximation is judged
    against, and the "exact counting wall" measured in experiment E3.

    - [brute_force]: all [|U|^{|vars|}] assignments (tiny instances).
    - [by_join_projection]: enumerate solutions with the generic join
      (negated predicates as complement filter atoms, disequalities
      pruned in the search), cut to one solution per distinct assignment
      of the join-order prefix that ends at the deepest free variable.
      When the free variables are that prefix, each reported solution is
      a new answer and is counted without a table, by
      {!Ac_join.Generic_join.count} (a last level with one
      participating atom is counted from its run's width, without
      visiting each answer); otherwise a table
      deduplicates the reports' projections. Cost is driven by the
      number of distinct such {e prefixes}, not of solutions: once a
      prefix has one extension, its other extensions are never
      visited.
    - [by_free_enumeration]: for each of the [|U|^ℓ] free tuples decide
      extendability (cost driven by [|U|^ℓ]).

    All three compute [|Ans(φ, D)|] exactly; tests cross-check them.
    Every entry point takes an optional [budget] (cooperative
    cancellation: a tripped budget aborts the enumeration with
    [Ac_runtime.Budget.Budget_exceeded]). *)

val brute_force :
  ?budget:Ac_runtime.Budget.t ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  int

val by_join_projection :
  ?budget:Ac_runtime.Budget.t ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  int

val by_free_enumeration :
  ?budget:Ac_runtime.Budget.t ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  int

(** Best-effort count under a budget: enumerates distinct answers until
    the budget trips. Returns [(count, completed)] — when [completed]
    the count is exact; otherwise it is a lower bound (the planner's
    last-resort partial estimate). Never raises [Budget_exceeded]. *)
val partial_count :
  ?budget:Ac_runtime.Budget.t ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  int * bool

(** The paper's footnote-4 easiness result: a quantifier-free query
    without disequalities counts homomorphisms, which is
    fixed-parameter-exact for bounded treewidth (Dalmau–Jonsson,
    {!Ac_hom.Hom.count_dp}). [None] when the query has existential
    variables or disequalities (negated atoms are fine — they are
    positive atoms over the complement relations). *)
val by_hom_dp :
  ?budget:Ac_runtime.Budget.t ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  int option

(** The set of answers (projections), via the same cut enumeration as
    [by_join_projection], each exactly once. Each answer is an array of
    length [ℓ]. *)
val answers :
  ?budget:Ac_runtime.Budget.t ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  int array list

(** [is_answer φ db τ]: can the free-variable assignment [τ] be extended
    to a solution? *)
val is_answer :
  ?budget:Ac_runtime.Budget.t ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  int array ->
  bool
