module Graph = Ac_workload.Graph
module Query_families = Ac_workload.Query_families

let query_of = Query_families.lihom

let database_of host =
  let s = Graph.to_structure ~symbol:"E" host in
  (* isolated pattern vertices are bound by a unary V covering the host *)
  for v = 0 to Graph.num_vertices host - 1 do
    Ac_relational.Structure.add_fact s "V" [| v |]
  done;
  s

let approx_count ?budget ~exec ?engine ?rounds ~eps ~delta ~pattern host =
  Fptras.approx_count ?budget ~exec ?engine ?rounds ~eps ~delta
    (query_of pattern) (database_of host)

let exact_count ~pattern ~host =
  Exact.by_join_projection (query_of pattern) (database_of host)

let exact_count_brute ~pattern ~host =
  Graph.count_locally_injective_brute pattern host
