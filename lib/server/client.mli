(** Client side of the {!Wire} protocol: one surface, one policy knob.

    [connect ?policy addr] is the single entry point; the
    {!Retry_policy.t} decides how hard a call tries. The default
    ([Retry_policy.none]) is the plain synchronous client — one
    attempt, no envelope ids, byte-identical wire behaviour to the
    historical [Client.connect] — while [Retry_policy.default] (or any
    policy with [attempts > 1]) buys the retrying machinery: per-call
    deadlines, read timeouts, reconnection, capped
    decorrelated-jitter backoff, and envelope request ids that make
    duplicated or delayed frames harmless.

    A retrying client only ever retries {e idempotent} requests
    ([Wire.idempotent]: service verbs, seeded [COUNT]/[SAMPLE] and
    batch-id'd mutations); a transport fault on anything else is
    refused with a typed [Retry_unsafe] instead of silently answering a
    different random experiment.

    One {!t} is one connection (and therefore one server session —
    [USE] sticks; a policy-driven reconnect starts a fresh session).
    Calls are synchronous. Not thread-safe; open one client per thread
    — [Router]'s shard pools do exactly that.

    Every error a client returns names the address it was talking to
    (in the [file]/[source] field) and the verb it was sending (as a
    message prefix) — a transport failure is attributable without
    reproducing it. *)

type address = Unix_socket of string | Tcp of string * int

(** Accepts ["unix:PATH"], ["tcp:HOST:PORT"], ["HOST:PORT"] and a bare
    filesystem path (anything without a colon, or starting with [/] or
    [.]). *)
val address_of_string : string -> (address, string) result

val address_to_string : address -> string

type t

(** Connect eagerly; failures surface as typed [Io] errors. [policy]
    defaults to {!Retry_policy.none} (the plain client). *)
val connect : ?policy:Retry_policy.t -> address -> (t, Ac_runtime.Error.t) result

(** Like {!connect} but lazy: no connection is opened until the first
    {!call}, and — under a retrying policy — a dead one is transparently
    reopened. Never fails; the first call surfaces dial errors. *)
val create : ?policy:Retry_policy.t -> address -> t

val address : t -> address
val policy : t -> Retry_policy.t

(** Retries performed over the client's lifetime (also counted by the
    [acq_retries_total] metric, labelled by verb); always [0] under a
    single-attempt policy. *)
val retries_total : t -> int

(** One logical call under the client's policy.

    Single-attempt policy: one round trip; [Error] covers transport
    failures (the server closing mid-call, malformed response JSON) — a
    server-side refusal is a successful call returning [Wire.Refused].

    Retrying policy, additionally:
    - each attempt carries a fresh envelope id — a digest of the
      canonical request plus the attempt number — and frames whose id
      does not match are discarded, so duplicated or delayed frames
      from earlier attempts are harmless;
    - each attempt tells the server the {e remaining} deadline
      ([deadline_ms] on the wire), so admission control can shed work
      nobody will wait for; when the deadline passes, the call returns
      a typed [Deadline_exceeded];
    - transport faults on idempotent requests reconnect and retry under
      capped decorrelated-jitter backoff; on non-idempotent (unseeded)
      requests they return [Retry_unsafe];
    - a decoded response, including a server-side [Refused], is final —
      the retry layer never second-guesses the server. *)
val call : t -> Wire.request -> (Wire.response, Ac_runtime.Error.t) result

val close : t -> unit
