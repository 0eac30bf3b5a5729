(** (Nondeterministic) top-down tree automata over [Trees₂[Σ]]
    (Definition 50).

    States and symbols are dense integers. A transition relates a
    [(state, symbol)] pair to [∅] (the node must be a leaf), to one
    successor state (unary node) or to an ordered pair of successor
    states (binary node). The automaton accepts a labelled tree when
    there is a run assigning the [initial] state to the root.

    (The paper writes Δ as a function; the automaton of Lemma 52 needs
    several successors per [(state, symbol)] pair — e.g. each extension
    [α₁ ∈ A_α] of a bag assignment yields its own transition — so the
    implementation is nondeterministic, matching the #NFA setting of
    Arenas et al.) *)

type rhs =
  | Stop                 (** leaf transition [→ ∅] *)
  | One of int           (** unary transition *)
  | Two of int * int     (** binary transition (left, right) *)

type t

val create : num_states:int -> num_symbols:int -> initial:int -> t
val num_states : t -> int
val num_symbols : t -> int
val initial : t -> int

(** [add_transition a ~state ~symbol rhs] — duplicates are ignored. *)
val add_transition : t -> state:int -> symbol:int -> rhs -> unit

val transitions : t -> state:int -> symbol:int -> rhs list

(** Iterate over all transitions. *)
val iter_transitions : t -> (state:int -> symbol:int -> rhs -> unit) -> unit

(** [run_states a tree] — the set (sorted list) of states [s] such that
    the subtree admits a run starting from [s]. Uses a fresh {!memo}. *)
val run_states : t -> Ltree.t -> int list

val accepts : t -> Ltree.t -> bool

(** Run-state memo of one automaton, keyed on [Ltree] node ids (sound
    because ids are unique), so repeated membership tests over shared
    subtrees are cheap. Not synchronised: a memo belongs to one caller
    on one domain, and its memory goes when the caller drops it. *)
type memo

val memo : t -> memo

(** [accepts_from memo s tree] — a run of [memo]'s automaton from state
    [s], memoised in [memo]. *)
val accepts_from : memo -> int -> Ltree.t -> bool
