(** The (ε, δ) contract, checked statistically.

    An estimator run at accuracy [ε] and confidence [δ] promises
    [|est − exact| ≤ ε · exact] with probability at least [1 − δ]. A
    case runs the estimator under [K] engine seeds against
    [Exact.by_join_projection] and counts the violations; the promise is
    refuted when the one-sided Clopper–Pearson lower bound on the
    violation rate exceeds [δ]. Runs go through
    [Planner.run_rung], the estimator dispatch of the request path.

    The corpus is the one the FPRAS sketch size κ(ε) is calibrated on
    ([Acjr.sketch_size_for]): 2-, 3- and 4-path and 3-star CQs on
    G(14, 0.3) seed 5 and the 2-path on a [Dbgen] database (seed 1401,
    |U| = 20, 60 edges), plus FPTRAS cases big enough that the edge-count
    layer samples instead of enumerating. *)

type case = {
  name : string;
  query : string;
  rung : Ac_analysis.Rung.t;
  db : Ac_relational.Structure.t Lazy.t;
}

(** The FPRAS cases (every [rung] is [Fpras]). *)
val fpras_cases : case list

(** Tree-DP and generic-join FPTRAS cases. *)
val fptras_cases : case list

type row = {
  case : case;
  eps : float;
  delta : float;
  kappa : int option;  (** the FPRAS sketch size; [None] for FPTRAS *)
  trials : int;
  violations : int;
  cp_lower : float;
  mean_err : float;
  max_err : float;
  sampled : int;  (** runs whose answer was not settled exactly *)
}

(** [cp_lower ~trials x]: one-sided Clopper–Pearson lower bound, at
    [confidence] (default 0.95), on a binomial rate with [x] successes
    in [trials]. *)
val cp_lower : ?confidence:float -> trials:int -> int -> float

(** [run ~eps ~delta ~trials case] runs [case] under engine seeds
    [1 .. trials] (jobs 1). [kappa] pins an FPRAS case's sketch size
    instead of κ(eps) — the fixed-size sketch before κ followed ε. *)
val run : ?kappa:int -> eps:float -> delta:float -> trials:int -> case -> row

(** The promise holds: [cp_lower ≤ delta]. *)
val holds : row -> bool
