(** The budget-aware ε-degradation ladder.

    The governed planner degrades along this {e ladder}: first every
    applicable rung with an intact (ε, δ) guarantee, cheapest predicted
    cost first; then (when all of those tripped the budget) the
    cheapest guaranteed sampling rung again at doubled ε — a coarser
    answer whose δ guarantee still holds beats a guarantee-free lower
    bound; finally the partial-enumeration sweep. Each step carries the
    ε it runs at, so the caller can report the accuracy actually
    delivered ([eps_used]). *)

type step = {
  rung : Cost.rung;
  eps : float;    (** the accuracy this step runs at *)
  relaxed : bool; (** [eps] is coarser than the request *)
}

(** Relaxation steps appended after the guaranteed rungs (default 2:
    2ε then 4ε, capped at {!eps_cap}). *)
val default_max_relax : int

(** Relaxed ε never exceeds this (0.5: beyond it the estimate is
    hardly an estimate). *)
val eps_cap : float

(** [build ~eps ~delta cost] — ranked guaranteed rungs at [eps], then
    the relaxation steps, then [Partial]. Always non-empty and always
    ends with [Partial]. *)
val build : ?max_relax:int -> eps:float -> delta:float -> Cost.t -> step list

val to_json : step list -> Json.t
