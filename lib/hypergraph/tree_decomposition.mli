(** Tree decompositions (Definition 4) and their construction.

    A decomposition is stored as a rooted forest-free tree over node
    indices [0 .. n-1] with a bag per node. Construction goes through
    elimination orderings of the primal graph: every tree decomposition of
    a hypergraph can be normalised to one arising from an elimination
    order, and bag costs only improve under taking subsets (Observation
    40), so searching elimination orders is complete for every monotone
    f-width (Definition 32). *)

type t = {
  bags : Bitset.t array;
  parent : int array; (* parent.(i) = parent node, or -1 for the root *)
}

val root : t -> int
val num_nodes : t -> int
val children : t -> int list array

(** [contract d] merges every bag into its parent where one contains
    the other, until no bag is nested in a neighbour's: the same width,
    the same separators, and no node whose join is a projection of its
    neighbour's. *)
val contract : t -> t

(** [width d] = [max |bag| - 1] (Definition 4). *)
val width : t -> int

(** Checks the two tree-decomposition properties plus rootedness: every
    hyperedge inside some bag, and every vertex's bags forming a connected
    subtree. *)
val is_valid : Hypergraph.t -> t -> bool

(** [of_elimination_order h order] builds the fill-in decomposition for the
    given permutation of the vertices. *)
val of_elimination_order : Hypergraph.t -> int array -> t

(** Greedy minimum-fill elimination ordering of the primal graph. *)
val min_fill_order : Hypergraph.t -> int array

(** Greedy minimum-degree elimination ordering of the primal graph. *)
val min_degree_order : Hypergraph.t -> int array

(** [exact_f_width h ~cost] minimises, over all tree decompositions, the
    maximum of [cost bag] (an f-width, Definition 32), by dynamic
    programming over vertex subsets. [cost] must be monotone under set
    inclusion. Returns the optimal value and a witnessing elimination
    order. Raises [Invalid_argument] when [h] has more than 22 vertices.
    With [cost = fun b -> |b| - 1] this is exact treewidth. *)
val exact_f_width : Hypergraph.t -> cost:(Bitset.t -> float) -> float * int array

(** Exact treewidth for small hypergraphs ([exact_f_width] with cardinality
    cost); [-1] for an edgeless hypergraph is approximated as width of the
    singleton-bag decomposition, matching [tw = 0] for single vertices. *)
val treewidth_exact : Hypergraph.t -> int * t

(** Best-effort decomposition: exact when [num_vertices <= exact_limit]
    (default 14), the better of the min-fill and min-degree heuristics
    otherwise. *)
val decompose : ?exact_limit:int -> Hypergraph.t -> t

val pp : Format.formatter -> t -> unit
