(** Simple undirected graphs — the workload substrate for the locally
    injective homomorphism application (Corollary 6), the Hamiltonian-path
    hardness construction (Observation 10) and the random databases of the
    experiments. *)

type t

val create : num_vertices:int -> (int * int) list -> t
val num_vertices : t -> int

(** Normalised (u < v) edge list, deduplicated, no self-loops. *)
val edges : t -> (int * int) list

val num_edges : t -> int
val neighbours : t -> int -> int list
val degree : t -> int -> int
val has_edge : t -> int -> int -> bool

(** Pairs [(i, j)], [i < j], of distinct vertices with a common neighbour
    — the paper's [cn(G)] used in the locally-injective encoding. *)
val common_neighbour_pairs : t -> (int * int) list

(** Symmetric binary relation [symbol] (default ["E"]) over the vertex
    universe: both [(u,v)] and [(v,u)] for each edge. *)
val to_structure : ?symbol:string -> t -> Ac_relational.Structure.t

(** {2 Families} *)

val path : int -> t
val cycle : int -> t
val clique : int -> t
val star : int -> t
val grid : int -> int -> t
val binary_tree : depth:int -> t

(** Erdős–Rényi [G(n, p)]. *)
val random_gnp : rng:Random.State.t -> int -> float -> t

(** Uniform graph with exactly [m] edges ([m ≤ n(n-1)/2]). *)
val random_gnm : rng:Random.State.t -> int -> int -> t

(** Exact number of Hamiltonian paths (ordered vertex sequences visiting
    every vertex once along edges; each undirected path is counted in both
    directions, matching the answer count of Observation 10's query).
    Held–Karp subset DP; [n ≤ 20]. *)
val count_hamiltonian_paths : t -> int

(** Exact count of locally injective homomorphisms from [g] into [g']
    (brute force; testing baseline). *)
val count_locally_injective_brute : t -> t -> int
