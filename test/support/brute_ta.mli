(** Ground truth for the tree-automaton counters on tiny instances:
    enumerate all [|Σ|^n] labelings of [shape] and count those the
    automaton accepts. *)
val count_fixed_shape :
  Ac_automata.Tree_automaton.t -> Ac_automata.Ltree.shape -> int
