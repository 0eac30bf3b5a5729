(** Exact two-phase simplex over rationals.

    This is the linear-programming substrate of the width-measure
    computations: fractional edge covers (Definition 39), fractional
    hypertreewidth bag costs (Definition 41) and fractional independent
    sets witnessing adaptive width (Definition 33). Problems are stated
    over [n] non-negative variables with {!Rat} coefficients; pivoting
    is exact (Bland's rule throughout — with exact arithmetic it both
    terminates and needs no tolerances), so values like [fcn = 3/2] are
    certified. Arithmetic that leaves native ints raises
    [Rat.Overflow]. *)

type relation = Le | Ge | Eq

type constr = {
  coeffs : Rat.t array;
  relation : relation;
  bound : Rat.t;
}

type outcome =
  | Optimal of { value : Rat.t; point : Rat.t array }
  | Infeasible
  | Unbounded

val constr : Rat.t array -> relation -> Rat.t -> constr

val maximize : num_vars:int -> objective:Rat.t array -> constr list -> outcome
val minimize : num_vars:int -> objective:Rat.t array -> constr list -> outcome

(** Exact feasibility check of a point. *)
val check : constr list -> Rat.t array -> bool
