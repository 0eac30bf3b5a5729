module Ltree = Ac_automata.Ltree
module Tree_automaton = Ac_automata.Tree_automaton

let count_fixed_shape a shape =
  Ltree.labelings ~alphabet:(Tree_automaton.num_symbols a) shape
  |> List.filter (Tree_automaton.accepts a)
  |> List.length
