(** Exact counting of accepted labelled trees — the verification baselines
    for the #TA FPRAS (Lemma 51).

    [count_fixed_shape] counts the labelings of one given shape that the
    automaton accepts, by a subset-construction dynamic program: for every
    node it maintains the distribution of "exact run-state sets" over
    labelings of the subtree. Exponential in the number of states in the
    worst case, but exact — usable for small automata.

    [count_slice] is the paper's [#TA]: it sums [count_fixed_shape] over
    all ordered binary tree shapes with exactly [n] nodes. *)

val count_fixed_shape : Tree_automaton.t -> Ltree.shape -> int
val count_slice : Tree_automaton.t -> int -> int
