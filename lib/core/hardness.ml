module Graph = Ac_workload.Graph
module Query_families = Ac_workload.Query_families

let query = Query_families.hamiltonian

let database_of g = Graph.to_structure ~symbol:"E" g

let exact_paths = Graph.count_hamiltonian_paths

let exact_via_query g =
  Exact.by_join_projection (query (Graph.num_vertices g)) (database_of g)

let approx_via_query ?budget ~exec ?engine ?rounds ~eps ~delta g =
  Fptras.approx_count ?budget ~exec ?engine ?rounds ~eps ~delta
    (query (Graph.num_vertices g))
    (database_of g)
