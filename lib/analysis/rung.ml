type t = Fpras | Exact | Tree_dp | Generic_join | Partial

let name = function
  | Fpras -> "fpras"
  | Exact -> "exact"
  | Tree_dp -> "tree-dp"
  | Generic_join -> "generic-join"
  | Partial -> "partial"

let ordinal = function
  | Fpras -> 0
  | Exact -> 1
  | Tree_dp -> 2
  | Generic_join -> 3
  | Partial -> 4

let priority = function
  | Exact -> 0
  | Fpras -> 1
  | Tree_dp -> 2
  | Generic_join -> 3
  | Partial -> 4
