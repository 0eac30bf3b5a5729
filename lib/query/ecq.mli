(** Extended conjunctive queries (§1.1).

    An ECQ [φ(x_0, .., x_{ℓ-1}) = ∃ x_ℓ .. x_{ℓ+k-1}. ψ] is stored with
    variables numbered [0 .. num_vars - 1]; the first [num_free] are the
    free (output) variables. Atoms are positive predicates, negated
    predicates and disequalities. Equalities are assumed rewritten away, as
    in the paper.

    A CQ is an ECQ with no negated atoms and no disequalities; a DCQ may
    have disequalities but no negated atoms. *)

type atom =
  | Atom of string * int array       (** [R(y_1, .., y_j)] *)
  | Neg_atom of string * int array   (** [¬R(y_1, .., y_j)] *)
  | Diseq of int * int               (** [y_i ≠ y_j] *)

type t = private {
  num_free : int;
  num_vars : int;
  atoms : atom list;
  var_names : string array;
}

(** [make ~num_free ~num_vars atoms] validates and builds a query:
    variable indices must be in range, predicates non-nullary,
    disequalities between distinct variables, every variable must occur in
    at least one atom, and a relation symbol must be used with a single
    arity. Raises [Invalid_argument] otherwise. *)
val make : ?var_names:string array -> num_free:int -> num_vars:int -> atom list -> t

val num_free : t -> int
val num_vars : t -> int
val num_existential : t -> int
val atoms : t -> atom list

(** The paper's [‖φ‖]: |vars(φ)| plus the sum of the arities of all atoms
    (a disequality counts 2). *)
val size : t -> int

(** Positive and negated predicate count. *)
val num_predicates : t -> int

val num_negated : t -> int

(** Δ(φ): the set of disequality pairs [{i, j}], normalised [i < j]. *)
val delta : t -> (int * int) list

val is_cq : t -> bool
val is_dcq : t -> bool

(** Signature: relation symbol → arity, sorted by name. *)
val signature : t -> (string * int) list

(** [H(φ)] (Definition 3): one hyperedge per (possibly negated) predicate;
    no edges for disequalities. *)
val hypergraph : t -> Ac_hypergraph.Hypergraph.t

(** [compatible_with φ db]: [sig(φ) ⊆ sig(D)] with matching arities. *)
val compatible_with : t -> Ac_relational.Structure.t -> bool

(** [satisfied_by φ db assignment] — is the full assignment (length
    [num_vars]) a solution in the sense of Definition 1? *)
val satisfied_by : t -> Ac_relational.Structure.t -> int array -> bool

val var_name : t -> int -> string
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** The canonical key of a query: free/total variable counts plus the
    atom list over variable {e indices}. Variable names do not enter, so
    α-renamed queries share it. Everything the static analysis computes
    is a function of the key; the daemon's caches and the analysis memo
    are keyed by it. *)
val key : t -> string

(** {2 Construction helpers} *)

(** Add disequalities [x_i ≠ x_j] for all given pairs. *)
val add_diseqs : t -> (int * int) list -> t

(** All-pairs disequalities over the free variables (used by the
    Hamiltonian-path construction of Observation 10). *)
val all_pairs_diseq_free : t -> t

(** Parses a textual query such as
    ["ans(x, y) :- E(x, y), E(y, z), !R(x, z), x != z"]. Variables on the
    left of [:-] are free; remaining variables are existential. [!R] (or
    [not R]) denotes a negated predicate and [x != y] a disequality.

    Equalities [x = y] are accepted and rewritten away by unifying the
    two variables (the paper's §1.1 preprocessing). At most one free
    variable may occur per equality class — equating two free variables
    would change the answer arity — otherwise parsing fails.

    Raises [Failure] on syntax errors. *)
val parse : string -> t

(** A positioned parse failure: [offset] is the character offset of the
    offending token in the input ([-1] when no position applies, e.g.
    validation failures), [token] the offending token's text ([""] at
    end of input), [msg] the bare description. *)
type parse_error = { offset : int; token : string; msg : string }

exception Parse_error of parse_error

(** Renders a {!parse_error} in the classic [Failure] style:
    ["Ecq.parse: <msg> at offset <n> (near <token>)"]. *)
val parse_error_message : parse_error -> string

(** Like {!parse} but raises {!Parse_error} (position-carrying) instead
    of [Failure], and additionally returns one character span
    [(start, stop)] per atom — aligned with {!atoms} order — so that
    diagnostics can point back into the source text. *)
val parse_spans : string -> t * (int * int) array

(** {!parse} with syntax errors as typed [Parse] errors ([source] is
    ["query"]). Never raises. *)
val parse_result : string -> (t, Ac_runtime.Error.t) result
