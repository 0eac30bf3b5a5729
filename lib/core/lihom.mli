(** Counting locally injective homomorphisms (Corollary 6).

    A homomorphism [h : G → G'] is locally injective when it is injective
    on every neighbourhood [N_G(v)]. The paper encodes the count as
    [|Ans(φ(G), D(G'))|] where [φ(G)] has one free variable per vertex of
    [G], an [E]-atom per edge, and a disequality for every pair of
    vertices with a common neighbour ([cn(G)]); Theorem 5 then yields an
    FPTRAS whenever [tw(G)] is bounded. *)

(** The encoding [φ(G)] (same as {!Ac_workload.Query_families.lihom}). *)
val query_of : Ac_workload.Graph.t -> Ac_query.Ecq.t

(** The encoding [D(G')]. *)
val database_of : Ac_workload.Graph.t -> Ac_relational.Structure.t

(** FPTRAS for #LIHom (Corollary 6); the trailing positional argument is
    the host graph [G']. Raises on failure, like {!Fptras.approx_count}. *)
val approx_count :
  ?budget:Ac_runtime.Budget.t ->
  exec:Ac_exec.Engine.t ->
  ?engine:Colour_oracle.engine ->
  ?rounds:int ->
  eps:float ->
  delta:float ->
  pattern:Ac_workload.Graph.t ->
  Ac_workload.Graph.t ->
  Fptras.result

(** Exact count through the query encoding (join + projection). *)
val exact_count : pattern:Ac_workload.Graph.t -> host:Ac_workload.Graph.t -> int

(** Exact count by direct graph brute force (cross-check baseline). *)
val exact_count_brute :
  pattern:Ac_workload.Graph.t -> host:Ac_workload.Graph.t -> int
