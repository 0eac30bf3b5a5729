(** Execution budgets and cooperative cancellation.

    A {!t} bundles up to three limits — a wall-clock deadline, a
    work-tick ceiling and a live-heap watermark — plus a cooperative
    cancellation flag. Long-running loops call {!tick} once per unit of
    work; the expensive part of the check (clock read, [Gc.quick_stat])
    only runs every [check_every] ticks, keeping the overhead well under
    1% of the inner loop. When a limit trips, {!tick}/{!check} raise
    {!Budget_exceeded} carrying which limit fired and the progress made
    so far; the budget then stays tripped (sticky), so a cancelled
    computation cannot accidentally resume. *)

type limit =
  | Wall_clock  (** the deadline passed *)
  | Work        (** the work-tick ceiling was reached *)
  | Heap        (** [Gc.quick_stat] heap words crossed the watermark *)
  | Cancelled   (** {!cancel} was called *)

(** What tripped and how far the computation got. *)
type trip = {
  limit : limit;
  label : string;       (** the budget's label, for multi-budget traces *)
  elapsed_ms : float;   (** wall time since the budget was created *)
  ticks : int;          (** work ticks performed before the trip *)
  note : string;        (** human-readable detail *)
}

exception Budget_exceeded of trip

type t

(** Shared unlimited budget: {!tick} is a single increment-and-branch.
    Never {!cancel} or {!exhaust} it (both raise [Invalid_argument]);
    create a fresh budget instead. *)
val none : t

(** [create ()] with no limit set is an unarmed (but cancellable)
    budget. [deadline_ms] is relative to the call; [max_heap_mb] is
    compared against [Gc.quick_stat].heap_words; [check_every] (rounded
    up to a power of two, default 512) is the tick period of the full
    check. *)
val create :
  ?label:string ->
  ?deadline_ms:float ->
  ?max_ticks:int ->
  ?max_heap_mb:int ->
  ?check_every:int ->
  unit ->
  t

(** Some limit is set, or the budget was cancelled/tripped. *)
val limited : t -> bool

(** Count one unit of work; raises {!Budget_exceeded} on a (periodic)
    failed check. *)
val tick : t -> unit

(** [charge t k] is exactly [k] calls to {!tick} ([k <= 0] does
    nothing), in one call: the count ends [k] higher, and the checks
    run at every multiple of the tick period in [(c, c + k\]], so a
    trip raises at the same tick, with the same [trip.ticks] and
    [ticks t], as the [k] ticks would. A forced or tripped budget
    raises at [c + 1], as {!tick} does. A {!cancel} from another domain
    that arrives during the charge is noticed at the next period
    boundary. *)
val charge : t -> int -> unit

(** Full check now, regardless of the tick period. *)
val check : t -> unit

(** Cooperative cancellation: the next {!tick}/{!check} raises with
    {!Cancelled}. Idempotent; no effect on an already-tripped budget. *)
val cancel : ?note:string -> t -> unit

(** Force the budget to trip with {!Work} on the next check — simulated
    exhaustion, used by {!Chaos}. *)
val exhaust : ?note:string -> t -> unit

(** [Some trip] once the budget has tripped. *)
val tripped : t -> trip option

val ticks : t -> int
val elapsed_ms : t -> float

(** [slice t] is a child budget over [fraction] (default [0.5]) of [t]'s
    remaining wall-clock time and work ticks, with [t]'s heap watermark.
    A tripped child does not poison the parent — that is the point: the
    planner runs each fallback rung under a slice. Slicing an unlimited
    budget returns it unchanged; slicing a tripped budget returns an
    immediately-tripping child. Report the child's work back into the
    parent with {!absorb}. *)
val slice : ?fraction:float -> ?label:string -> t -> t

(** [absorb t child] adds [child]'s ticks to [t]'s counter (no check, no
    raise). *)
val absorb : t -> t -> unit

(** [split ~into:n t] — [n] sibling sub-budgets for {e concurrent}
    execution: unlike {!slice}, every child keeps the parent's full
    remaining wall-clock deadline (the children run at the same time,
    not one after another) and its heap watermark, while the remaining
    work ticks are divided evenly. Children are independently
    cancellable and a tripped child never poisons the parent or its
    siblings — the parallel trial engine cancels the siblings
    explicitly on the first trip and {!absorb}s every child after the
    join. Splitting an unlimited budget returns fresh unarmed (but
    cancellable) children, so cancellation works even when no limit was
    requested. *)
val split : ?label:string -> into:int -> t -> t array

val now_ms : unit -> float
val limit_name : limit -> string
val pp_trip : Format.formatter -> trip -> unit
