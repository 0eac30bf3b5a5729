(* How hard a client tries: one record, two canonical points.
   [none] is the plain single-attempt client (no envelope ids, no
   deadline rewriting — byte-identical wire behaviour to the historical
   [Client.connect]); [default] retries (1 + 3 attempts, 10..500 ms
   capped decorrelated-jitter backoff). *)

type t = {
  attempts : int;
  backoff_base_ms : float;
  backoff_cap_ms : float;
  read_timeout_ms : int option;
  deadline_ms : int option;
  seed : int;
}

let none =
  {
    attempts = 1;
    backoff_base_ms = 0.0;
    backoff_cap_ms = 0.0;
    read_timeout_ms = None;
    deadline_ms = None;
    seed = 0;
  }

let default =
  {
    none with
    attempts = 4;
    backoff_base_ms = 10.0;
    backoff_cap_ms = 500.0;
  }

(* Any knob beyond the bare single attempt engages the durable call
   path (envelope ids, deadline rewriting, read timeouts): a
   one-attempt policy with a deadline still needs the deadline
   enforced. *)
let retrying t =
  t.attempts > 1 || t.deadline_ms <> None || t.read_timeout_ms <> None
