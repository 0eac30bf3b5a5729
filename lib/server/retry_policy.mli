(** How hard a {!Client} tries: attempts, backoff, deadlines.

    One policy record parameterises the whole client surface —
    [Client.connect ?policy] is the single entry point, and the two
    canonical points of the policy space recover the two historical
    clients:

    - {!none} (the default) is the plain client: one attempt, no
      envelope request ids, no deadline rewriting — byte-identical wire
      behaviour to the pre-policy [Client.connect];
    - {!default} is the retrying client: 4 total attempts with capped
      decorrelated-jitter backoff between them.

    An engaged policy (see {!retrying}) buys the full fault-tolerance
    machinery: envelope ids with stale-frame discard, per-attempt
    deadline rewriting, reconnection, and the [Retry_unsafe] refusal on
    non-idempotent requests. *)

type t = {
  attempts : int;
      (** total attempts per call, [>= 1]; [1] disables the retry loop
          (a deadline or read timeout still engages the durable call
          path so it can be enforced) *)
  backoff_base_ms : float;  (** first sleep between attempts *)
  backoff_cap_ms : float;  (** sleep ceiling *)
  read_timeout_ms : int option;
      (** per-receive [SO_RCVTIMEO]; an expired timer is treated as a
          dead connection (reconnect + retry under a retrying policy) *)
  deadline_ms : int option;
      (** default end-to-end deadline per call when the request itself
          names none *)
  seed : int;  (** seeds the backoff jitter *)
}

(** One attempt, nothing else — today's plain client. *)
val none : t

(** 4 attempts, 10..500 ms capped decorrelated-jitter backoff. *)
val default : t

(** Does the policy engage the durable call path? True when
    [attempts > 1] or a deadline/read timeout is set — {!none} (and any
    policy equal to it in these fields) stays on the plain
    single-attempt path. *)
val retrying : t -> bool
