(** Reproducible self-initialisation seeds.

    A self-initialised [Random.State.t] hides the seed it used, making
    budget-exceeded runs impossible to replay. {!fresh_seed} draws a
    seed from the clock (plus a process-local counter so rapid calls
    differ) that the caller can log and later feed back through
    [Random.State.make]. *)

val fresh_seed : unit -> int
