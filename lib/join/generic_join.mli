(** Worst-case-optimal generic join.

    Enumerates all assignments [α : {0..num_vars-1} → U] that satisfy every
    atom [R(scope)] (the tuple [α(scope)] is in the atom's relation), by
    the classic variable-at-a-time intersection. With a variable order
    compatible with a fractional edge cover, the running time is within
    the AGM bound — this is the engine behind the paper's Lemma 48
    (enumerating [Sol(φ, D, B)]) and behind the [Hom] decision solvers.

    Each atom is read through its sealed relation's sorted columnar
    projection, and every level intersects the participants' runs with
    the galloping leapfrog kernels of [Ac_kernels] — batch-at-a-time, no
    per-tuple allocation. {!prepare} seals the atoms' relations.

    Candidates are enumerated in ascending order at every level, so
    solutions arrive in lexicographic order of the assignment read along
    the variable order — a function of the relations' contents, not of
    how they were built — and estimates downstream, where bounded
    oracles make the order observable, are bit-identical. [Ac_live]
    relies on this contract: a live
    (main+delta) database seals its merged view in the same ascending
    lexicographic order as a freshly-rebuilt sealed relation, so a
    join over the view and a join over a rebuild see the same
    candidate sequence — mutation then re-estimation stays
    bit-reproducible per seed.

    Atoms over {!Ac_relational.Relation.complement_view}s are never
    indexed (that would materialize the blow-up the views avoid): they
    join as filter atoms, decided when the last of their variables
    binds by a range check and one membership probe on the base's
    sealed columns, which allocates nothing.

    Variables contained in no candidate-providing atom range over their
    [domains] entry (or the full universe).

    When the same join is evaluated many times under different [domains]
    (the colour-coding oracle of Lemma 22 does exactly this), {!prepare}
    once and {!run} repeatedly: indexes and the variable order are built
    a single time, and cursor state is per-run, so concurrent runs over
    one [prepared] are safe. *)

type atom = {
  scope : int array;                    (** variable per position *)
  relation : Ac_relational.Relation.t;  (** arity = length of scope *)
}

val atom : int array -> Ac_relational.Relation.t -> atom

(** A compiled join: per-atom indexes and variable order, reusable
    across (concurrent) runs. *)
type prepared

(** [prepare ~num_vars ~universe_size ?order atoms]. [order], when
    given, must be a permutation of the variables; the default order
    takes variables ascending by the smallest relation they appear in.
    [budget], when given, is ticked once per backtracking-search node on
    every later {!run}, so a tripped budget cancels the enumeration with
    [Ac_runtime.Budget.Budget_exceeded]. The atoms' relations are sealed
    here. Raises [Invalid_argument] on
    malformed atoms. *)
val prepare :
  num_vars:int ->
  universe_size:int ->
  ?budget:Ac_runtime.Budget.t ->
  ?order:int array ->
  atom list ->
  prepared

(** [run prepared ?domains ~f] calls [f] on each satisfying assignment (a
    fresh array); [f] returning [false] stops the enumeration.
    [domains.(v)], when given, restricts variable [v] to the listed
    values, treated as a set. A strictly-ascending array (the
    [Ac_kernels.Intset] canonical form — what the oracle/[Hom] path
    always passes) is used as-is without copying, so don't mutate it
    during the run; anything else is canonicalized into a copy first.
    With [~reuse:true], [f] is handed the run's internal assignment
    array — valid only until [f] returns; callers that do not retain
    solutions (decision probes, semijoin scans) skip a copy per
    solution. [diseqs] pushes disequality pairs [(a, b)] (variable
    indices, [α(a) ≠ α(b)]) into the search: violating subtrees are
    pruned when the second endpoint binds, so [f] sees exactly the
    satisfying solutions, in unchanged (ascending)
    order — equivalent to filtering in [f], never slower.

    [~project:k] asks for the projection onto the variables
    [0 .. k-1]: once a solution is reported, the search resumes at the
    order position of the deepest of them, abandoning the rest of that
    solution's subtree. So each distinct assignment of the order prefix
    ending there is reported exactly once, with its first extension,
    and the reports are the unprojected enumeration's subsequence of
    first solutions per prefix — still ascending. Each projection's
    first occurrence therefore survives in the same relative order.
    When that prefix is exactly [0 .. k-1] (see {!order}), reports are
    distinct projections; otherwise two prefixes may share one.
    [k = 0] stops after the first solution. The cut visits a subset of
    the search nodes, so it never ticks [budget] more. *)
val run :
  ?domains:int array option array ->
  ?reuse:bool ->
  ?diseqs:(int * int) array ->
  ?project:int ->
  prepared ->
  f:(int array -> bool) ->
  unit

(** [count ?diseqs ?project prepared] is the number of solutions
    [run ?diseqs ?project prepared] reports, from the same search. Where
    every report resumes at the last order position (no [project], or
    one whose deepest variable is last in the order) and that level has
    a single participating atom, no domain and no filter atom, the
    level is counted in bulk: the last variable is the last column of
    that atom, so the values in its current run are distinct, and the
    leaves are the run's width less the distinct values of the
    already-bound disequality partners found inside it (one binary
    search each) — no descent per candidate.

    Ticks are unchanged: a bulk level charges [budget] its [k] leaves
    in one {!Ac_runtime.Budget.charge}, which is exactly [k] ticks, so
    {!Ac_runtime.Budget.ticks} and trip points are those of {!run}.
    [tally] (default a fresh counter) is incremented per counted
    solution as the search goes; after a [Budget_exceeded] it holds the
    count reached, as a per-report counter in [run]'s [f] would. The
    result is its final value. *)
val count :
  ?diseqs:(int * int) array ->
  ?project:int ->
  ?tally:int ref ->
  prepared ->
  int

(** The variable order the search binds in (a copy). *)
val order : prepared -> int array

(** {2 One-shot wrappers} *)

val iter :
  num_vars:int ->
  universe_size:int ->
  ?budget:Ac_runtime.Budget.t ->
  ?domains:int array option array ->
  ?order:int array ->
  atom list ->
  f:(int array -> bool) ->
  unit

val find :
  num_vars:int ->
  universe_size:int ->
  ?budget:Ac_runtime.Budget.t ->
  ?domains:int array option array ->
  ?order:int array ->
  atom list ->
  int array option

val exists :
  num_vars:int ->
  universe_size:int ->
  ?budget:Ac_runtime.Budget.t ->
  ?domains:int array option array ->
  ?order:int array ->
  atom list ->
  bool

val solutions :
  num_vars:int ->
  universe_size:int ->
  ?budget:Ac_runtime.Budget.t ->
  ?domains:int array option array ->
  ?order:int array ->
  atom list ->
  int array list

(** The order {!prepare} binds in by default, from each atom's scope and
    row count: variables ascending by the smallest [rows] of an atom
    whose scope holds them, ties by index; a variable in no atom comes
    last. {!prepare} feeds it the relations' cardinalities (a complement
    view's is {!Ac_relational.Relation.complement_cardinality}), so a
    caller holding only catalog counts computes the same order. *)
val default_order : num_vars:int -> (int array * int) list -> int array
