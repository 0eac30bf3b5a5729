module Iset = Set.Make (Int)

(* Distribution over exact run-state sets, keyed by the sorted element
   list. *)
type dist = (int list, int) Hashtbl.t

let add_to (d : dist) key count =
  let prev = Option.value ~default:0 (Hashtbl.find_opt d key) in
  Hashtbl.replace d key (prev + count)

(* States admitting a run at a node labelled [symbol], given the exact
   run-state sets of the children. *)
let step a ~symbol ~children_sets =
  let candidates =
    List.init (Tree_automaton.num_states a) (fun s ->
        (s, Tree_automaton.transitions a ~state:s ~symbol))
  in
  List.fold_left
    (fun acc (s, rhss) ->
      let fires =
        List.exists
          (fun rhs ->
            match (rhs, children_sets) with
            | Tree_automaton.Stop, [] -> true
            | Tree_automaton.One s1, [ c ] -> Iset.mem s1 c
            | Tree_automaton.Two (s1, s2), [ c1; c2 ] ->
                Iset.mem s1 c1 && Iset.mem s2 c2
            | _ -> false)
          rhss
      in
      if fires then Iset.add s acc else acc)
    Iset.empty candidates

let rec distribution a (Ltree.Shape kids) : dist =
  let out : dist = Hashtbl.create 16 in
  let child_dists = List.map (distribution a) kids in
  let symbols = List.init (Tree_automaton.num_symbols a) Fun.id in
  (match child_dists with
  | [] ->
      List.iter
        (fun symbol ->
          let r = step a ~symbol ~children_sets:[] in
          add_to out (Iset.elements r) 1)
        symbols
  | [ d1 ] ->
      Hashtbl.iter
        (fun key1 c1 ->
          let set1 = Iset.of_list key1 in
          List.iter
            (fun symbol ->
              let r = step a ~symbol ~children_sets:[ set1 ] in
              add_to out (Iset.elements r) c1)
            symbols)
        d1
  | [ d1; d2 ] ->
      Hashtbl.iter
        (fun key1 c1 ->
          let set1 = Iset.of_list key1 in
          Hashtbl.iter
            (fun key2 c2 ->
              let set2 = Iset.of_list key2 in
              List.iter
                (fun symbol ->
                  let r = step a ~symbol ~children_sets:[ set1; set2 ] in
                  add_to out (Iset.elements r) (c1 * c2))
                symbols)
            d2)
        d1
  | _ -> invalid_arg "Exact_ta: shape with more than 2 children");
  out

let count_fixed_shape a shape =
  let d = distribution a shape in
  let s0 = Tree_automaton.initial a in
  Hashtbl.fold
    (fun key count acc -> if List.mem s0 key then acc + count else acc)
    d 0

let count_slice a n =
  List.fold_left
    (fun acc shape -> acc + count_fixed_shape a shape)
    0
    (Ltree.shapes_with_size n)
