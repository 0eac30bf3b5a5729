(** Unions of extended conjunctive queries (§6, Karp–Luby).

    A UCQ is a non-empty list of ECQs sharing the number of free
    variables; its answers are the union of the members' answer sets. *)

type t = private {
  disjuncts : Ac_query.Ecq.t list;
  num_free : int;
}

(** Raises [Invalid_argument] on an empty list or mismatched free-variable
    counts. *)
val make : Ac_query.Ecq.t list -> t

val disjuncts : t -> Ac_query.Ecq.t list
val num_free : t -> int

(** Parses [";"]-separated queries, e.g.
    ["ans(x) :- E(x, y); ans(x) :- R(x, y)"]. *)
val parse : string -> t

val pp : Format.formatter -> t -> unit

(** Exact [|⋃ Ans(φ_i, D)|] by enumeration. *)
val exact_count : t -> Ac_relational.Structure.t -> int

(** Karp–Luby with the fully approximate pipeline (FPTRAS cardinalities,
    JVV draws, oracle membership; see {!Sampling.union_count_approx}).
    Raises on failure. *)
val approx_count :
  exec:Ac_exec.Engine.t ->
  ?engine:Colour_oracle.engine ->
  ?rounds:int ->
  ?kl_rounds:int ->
  eps:float ->
  delta:float ->
  t ->
  Ac_relational.Structure.t ->
  float

(** Is the tuple an answer of some disjunct? *)
val is_answer : t -> Ac_relational.Structure.t -> int array -> bool
