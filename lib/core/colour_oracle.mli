(** The [EdgeFree] oracle simulation of Lemma 22.

    The answer hypergraph [H(φ, D)] (Definition 24) has one vertex class
    [U_i(D)] per free variable and one hyperedge per answer. Lemma 30
    reduces [EdgeFree(H[V₁..V_ℓ])] (aligned parts) to homomorphism tests
    from [Â(φ)] to coloured targets; the implementation realises the hat
    structures' unary constraints as per-variable domains on the single
    [Hom] instance [A(φ) → B(φ, D)], which is the same set of constraints
    without materialising [B̂] for every colouring:

    - [P_i] (variable [x_i] confined to [S_i]) → free variable [i]'s
      domain is the part [V_i], existential domains are unrestricted;
    - [Rη]/[Bη] (colour classes) → for each disequality [η = {i, j}] and
      random colouring [f_η : U(D) → {r, b}], variable [i]'s domain keeps
      the [r]-coloured values and [j]'s the [b]-coloured ones.

    A query with any colouring admitting a homomorphism has an answer in
    the box (one-sided error): [rounds] random colourings give failure
    probability [(1 - 4^{-|Δ|})^rounds] per oracle call, matching the
    [Q = ⌈ln(2 T ℓ! / δ)⌉ · 4^{|Δ|}] budget in the proof of Lemma 22. *)

(** Which [Hom] engine backs the oracle. [Tree_dp] is Theorem 5's
    (bounded treewidth, Theorem 31); [Generic] is Theorem 13's stand-in
    (worst-case-optimal join, substitution for Theorem 36); [Direct]
    skips colour-coding entirely and checks disequalities inside the join
    — no width guarantee, used as an ablation baseline. *)
type engine = Tree_dp | Generic | Direct

type t

(** Statistics: homomorphism tests issued so far. *)
val hom_calls : t -> int

(** Oracle calls issued so far. *)
val oracle_calls : t -> int

(** [create ~rounds ~engine φ db]. [rounds] is the {e base}
    colouring budget: an oracle call whose propagation leaves [Δ']
    unresolved disequalities uses [rounds · 4^{|Δ'|}] random colourings
    (capped at 65536; the paper's budget is the [⌈ln(2Tℓ!/δ)⌉] factor of
    Lemma 22). Disequalities with a pinned endpoint or provably disjoint
    endpoint domains are resolved deterministically first, so most oracle
    calls near the leaves of the splitting enumeration pay no colouring
    rounds at all. Ignored by [Direct] and when [φ] has no
    disequalities. [probe] (default [true]) enables the colour-free
    probe: the surviving disequalities are pushed into one generic-join
    search (see {!Ac_join.Generic_join.run}), whose first surviving
    witness — or exhaustion — settles the box {e exactly}, so no
    colouring rounds run at all; [false] disables the probe, leaving the
    pure Lemma 22 colouring (used by the A1 ablation). The oracle holds
    no randomness of its own: every probe takes the stream it colours
    from as an argument. [budget], when given, is the
    cooperative-cancellation hook: it is ticked on every oracle call,
    every colouring round and (through {!Ac_hom.Hom}) every
    search/DP step, so a tripped budget aborts the oracle with
    [Ac_runtime.Budget.Budget_exceeded] mid-loop. [span], when given, is
    the parent under which every oracle call records an ["oracle"]
    tracing span (capped by the collector; one branch per call when
    absent) — the bottom level of the plan → rung → trial → oracle-call
    hierarchy. *)
val create :
  ?rounds:int ->
  ?probe:bool ->
  ?budget:Ac_runtime.Budget.t ->
  ?span:Ac_obs.Trace.span option ->
  engine:engine ->
  Ac_query.Ecq.t ->
  Ac_relational.Structure.t ->
  t

(** The paper's colouring budget [⌈ln(2 T ℓ! / δ)⌉ · 4^{|Δ|}]. *)
val rounds_for :
  delta:float -> ell:int -> num_diseq:int -> expected_oracle_calls:int -> int

(** The aligned [EdgeFree] oracle over the ℓ classes (class [i] =
    values of free variable [i]), with the probe's RNG passed per call
    ({!Ac_dlm.Edge_count.seeded_oracle}), so each trial's colourings
    come from its own stream. The oracle value itself is safe to share
    across domains — the prepared solver and relations are read-only
    after {!create}, the call counters are atomic, and the baked
    [budget] is ticked from all domains (racy counts, but trips reach
    every domain). *)
val seeded_oracle : t -> Ac_dlm.Edge_count.seeded_oracle

(** The partite space of [H(φ, D)]: ℓ classes of size [|U(D)|]. Raises
    [Invalid_argument] for Boolean queries (ℓ = 0) — see
    {!Fptras.approx_count}, which handles them separately. *)
val space : t -> Ac_dlm.Partite.space

(** Decision with explicit free-variable domains — [false] iff edge-free.
    Exposed for the Boolean-query path and for tests. [rng] supplies
    the colouring randomness for this one probe. *)
val has_answer_in_box : rng:Random.State.t -> t -> int array array -> bool
