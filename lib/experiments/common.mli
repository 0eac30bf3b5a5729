(** Shared plumbing for the experiment harness (DESIGN.md §4): fixed-width
    table rendering, timing, relative error, and a deterministic RNG per
    experiment. *)

val rng : string -> Random.State.t

(** A sequential engine seeded by the next draw of [rng], so every
    estimator call of an experiment gets its own seed from the
    experiment's deterministic stream. *)
val engine : Random.State.t -> Ac_exec.Engine.t

(** [time f] = (result, seconds). *)
val time : (unit -> 'a) -> 'a * float

val rel_err : estimate:float -> truth:float -> float

(** [table fmt ~title ~header rows] renders an aligned table. *)
val table :
  Format.formatter -> title:string -> header:string list -> string list list -> unit

val f1 : float -> string
val f3 : float -> string

(** Experiment registry entry. *)
type t = {
  id : string;        (** "E1" .. "E8" *)
  claim : string;     (** the paper claim it regenerates *)
  queries : (string * Ac_query.Ecq.t) list;
      (** named representative queries of the experiment's family — the
          lint surface checked by [experiments --lint-families] in CI *)
  run : Format.formatter -> unit;
}
