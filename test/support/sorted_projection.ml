module Relation = Ac_relational.Relation
module Column = Ac_relational.Column
module Tuple = Ac_relational.Tuple

let build r ~positions ~equalities =
  let primary =
    match Relation.sealed_cols r with
    | Some c -> c
    | None -> invalid_arg "Sorted_projection.build: relation is not sealed"
  in
  let cell i p = Column.get primary.Relation.columns.(p) i in
  let rows =
    List.init primary.Relation.rows Fun.id
    |> List.filter (fun i ->
           Array.for_all (fun (p, q) -> cell i p = cell i q) equalities)
    |> List.map (fun i -> Array.map (cell i) positions)
    |> List.sort_uniq Tuple.compare
  in
  let arity = Array.length positions in
  match Relation.sealed_cols (Relation.of_sorted ~arity (Array.of_list rows)) with
  | Some c -> c
  | None -> assert false
