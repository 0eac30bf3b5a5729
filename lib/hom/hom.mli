(** The homomorphism decision problem [Hom] (§3).

    Given structures [A] and [B] with [sig(A) ⊆ sig(B)], decide whether a
    homomorphism [h : U(A) → U(B)] exists. Two solvers are provided:

    - [`Backtracking]: worst-case-optimal generic join over one atom per
      fact of [A] — the engine standing in for Marx's adaptive-width
      algorithm (Theorem 36, see DESIGN.md substitution 2);
    - [`Decomposition]: dynamic programming over a tree decomposition of
      [H(A)] with per-bag joins, each bag memoised on the values it
      shares with its parent — the Dalmau–Kolaitis–Vardi style
      algorithm behind Theorem 31. {!count_dp} sums and multiplies
      over the same bag joins.

    Both accept optional per-variable [domains] (used by the colour-coding
    reduction to pin unary constraints cheaply). The colour-coding oracle
    issues thousands of decisions against one instance; {!prepare} once
    (join indexes; for [Decomposition], the decomposition and its
    arc-consistent base domains) and {!decide} per call. *)

type instance = {
  source : Ac_relational.Structure.t;  (** [A]; its universe elements are the CSP variables *)
  target : Ac_relational.Structure.t;  (** [B] *)
}

(** [H(A)] — one hyperedge per fact of [A] (plus singleton edges for
    isolated universe elements). *)
val hypergraph : Ac_relational.Structure.t -> Ac_hypergraph.Hypergraph.t

(** One generic-join atom per fact of [A], interpreted over [B]'s
    relations. Raises [Invalid_argument] if a symbol of [A] is missing
    from [B]. *)
val to_atoms : instance -> Ac_join.Generic_join.atom list

(** Arc-consistent unary domains: [domains.(a)] is the ascending array
    of values [b] such that every fact of [A] containing [a] has a
    supporting fact in [B] with [b] at [a]'s position ([Intset]
    canonical form). [None] when some domain is empty (no homomorphism
    exists). *)
val restrict_domains : instance -> int array array option

type strategy = Backtracking | Decomposition

type prepared

(** [budget], when given, is ticked by every later decision/enumeration
    (per generic-join search node, per DP memo entry), so a tripped
    budget cancels the computation with
    [Ac_runtime.Budget.Budget_exceeded]. *)
val prepare :
  strategy:strategy ->
  ?budget:Ac_runtime.Budget.t ->
  instance ->
  prepared
val strategy : prepared -> strategy

(** [decide p ?domains ()] — is there a homomorphism mapping each
    variable inside its domain? [Decomposition] intersects [domains]
    with the arc-consistent base domains computed at {!prepare} (its
    bag joins start from them); [Backtracking] passes [domains] to the
    full join as they are, since every positive atom holding a variable
    already bounds its candidates there, so base domains would never
    prune. *)
val decide : prepared -> ?domains:int array option array -> unit -> bool

(** First homomorphism found ([Backtracking] search order). *)
val solve : prepared -> ?domains:int array option array -> unit -> int array option

(** Enumerate all homomorphisms (backtracking order); [f] returning
    [false] stops. [diseqs] prunes disequality-violating assignments
    inside the search, and [project] reports one homomorphism per
    distinct assignment of the order prefix ending at the deepest of
    the variables [0 .. project-1] (see {!Ac_join.Generic_join.run}). *)
val iter_solutions :
  ?domains:int array option array ->
  ?reuse:bool ->
  ?diseqs:(int * int) array ->
  ?project:int ->
  prepared ->
  f:(int array -> bool) ->
  unit

(** The number of homomorphisms {!iter_solutions} reports with the
    same [diseqs] and [project], counted by
    {!Ac_join.Generic_join.count} (the last join level in bulk where it
    can be); [tally] as there. *)
val count_solutions :
  ?diseqs:(int * int) array ->
  ?project:int ->
  ?tally:int ref ->
  prepared ->
  int

(** The variable order {!iter_solutions} binds in. *)
val order : prepared -> int array

(** Checks that [h] is a homomorphism. *)
val is_homomorphism : instance -> int array -> bool

(** Count all homomorphisms (exponential; testing baseline). *)
val count_brute_force : instance -> int

(** Exact homomorphism counting by dynamic programming over the tree
    decomposition of [H(A)] that [Decomposition] decides on —
    Dalmau–Jonsson's fixed-parameter algorithm (the paper's footnote 4:
    counting answers to quantifier-free CQs is counting homomorphisms,
    easy for bounded treewidth). A bag's count under the values it
    shares with its parent is the sum, over its solutions, of the
    product of its children's counts. Polynomial in [‖B‖] for bounded
    [tw(A)]. [budget] is ticked per memo entry (one per bag and shared
    values) and per search node of the bag joins. *)
val count_dp : ?budget:Ac_runtime.Budget.t -> instance -> int

(** {2 Homomorphic cores}

    The core of [A] is a minimal structure hom-equivalent to [A] (unique
    up to isomorphism). Theorem 31's original statement applies to
    classes whose {e cores} have bounded treewidth; the core is computed
    by repeatedly finding a non-injective endomorphism and restricting to
    its image. Intended for small structures (query-side only). *)

(** [core a] — a core of [a]. *)
val core : Ac_relational.Structure.t -> Ac_relational.Structure.t

(** [is_core a] — no non-injective endomorphism exists. *)
val is_core : Ac_relational.Structure.t -> bool
