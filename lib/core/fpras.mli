(** The FPRAS for #CQ with bounded fractional hypertreewidth (Theorem 16).

    Pipeline, exactly as in §5.2:
    + a {e nice} tree decomposition of [H(φ)] (Lemma 43 /
      {!Ac_hypergraph.Nice_decomposition}); every bag's fractional edge
      cover number is at most that of the input decomposition
      (Observation 40), so bag solution sets stay polynomial for bounded
      fhw;
    + per-bag solution sets [Sol(φ, D, B_t)] (Definition 47) enumerated
      within the AGM bound by the generic join (Lemma 48 / Grohe–Marx);
    + the tree automaton of Lemma 52 whose accepted labelings of the
      decomposition's shape are in bijection with [Ans(φ, D)];
    + approximate counting of accepted labelings with the ACJR sketch
      engine (Lemma 51 / {!Ac_automata.Acjr}), or exact counting with the
      subset-construction DP for validation. *)

(** [Sol(φ, D, B)] (Definition 47): assignments over the sorted variable
    list of [bag], each the restriction of tuples consistent with every
    atom. [None] when some relation of [φ] is empty in [db] (then
    [Ans(φ, D) = ∅]). *)
val bag_solutions :
  ?budget:Ac_runtime.Budget.t ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  Ac_hypergraph.Bitset.t ->
  int array list option

type build = {
  automaton : Ac_automata.Tree_automaton.t;
  shape : Ac_automata.Ltree.shape;
  num_states : int;
  num_symbols : int;
  num_nodes : int;
  max_bag_solutions : int;
}

(** Build the Lemma 52 automaton for a CQ. [None] when the answer count
    is trivially 0. Raises [Invalid_argument] on non-CQ input; a tripped
    [budget] aborts with [Ac_runtime.Budget.Budget_exceeded]. *)
val build :
  ?budget:Ac_runtime.Budget.t ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  build option

(** Approximate [|Ans(φ, D)|] end to end (the Theorem 16 FPRAS).
    [budget] governs both the automaton construction and the sketch
    propagation (overriding [config]'s own budget field). The sketch is
    sized by [eps] ({!Ac_automata.Acjr.sketch_size_for}); a [config]
    given explicitly replaces that sizing (for sketch-size ablations)
    and [eps] is then unused.

    A median over [repetitions] independent sketch propagations
    (default: the δ=0.05 batch of
    {!Ac_automata.Acjr.repetitions_for}) is fanned out over
    [exec]'s domains via {!Ac_automata.Acjr.estimate_median}; every
    repetition draws from its own stream of [exec]'s seed, so the result
    is bit-identical for any jobs count. A single repetition runs one
    propagation on the config as given: [config]'s own rng when one is
    passed, stream 0 of [exec]'s seed otherwise. *)
val approx_count :
  ?budget:Ac_runtime.Budget.t ->
  ?config:Ac_automata.Acjr.config ->
  exec:Ac_exec.Engine.t ->
  ?repetitions:int ->
  eps:float ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  float

(** Exact count through the automaton (exponential in the number of
    states; validation on small instances — checks the Lemma 52
    bijection). *)
val exact_count_automaton :
  ?budget:Ac_runtime.Budget.t ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  int

(** Approximately-uniform answer sampling via the automaton (the §6
    extension backed by ACJR's sampler): returns an answer tuple over the
    free variables. Every draw comes from [config]'s rng. *)
val sample_answer :
  ?budget:Ac_runtime.Budget.t ->
  config:Ac_automata.Acjr.config ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  int array option
