(** The acqd wire protocol: newline-delimited JSON envelopes.

    Each message is one JSON object on one line ([\n]-terminated).
    Requests map 1:1 onto [Approxcount.Api.request] (verbs [COUNT] and
    [SAMPLE]) plus the service verbs [USE], [STATS] and [PING];
    responses carry everything [Approxcount.Api.response] does —
    estimate, rung, degradation trail, telemetry — plus cache
    provenance, with [Ac_runtime.Error.exit_code] as the wire status
    ([0] success, [3] degraded, [10..17] the typed error classes).

    {b Exactness.} The estimate travels twice: human-readable
    ([estimate], [%.6g]) and bit-exact ([estimate_hex], OCaml [%h]).
    Decoders prefer the hex field, so a replayed estimate survives the
    wire bit-for-bit — the protocol preserves the
    same-seed-same-answer guarantee of the engine. The accuracy targets
    [eps]/[delta] travel as the shortest decimal that reads back
    bit-for-bit, and a request whose targets fall outside
    [Approxcount.Api.check_accuracy] is refused as a [parse] error.

    {b One declaration per record.} Every record below is declared once
    as [Ac_analysis.Codec] field descriptors; the encoders, decoders and
    the {!gen_request}/{!gen_response} generators all derive from it.

    {b Versioning.} Every message may carry a ["version"] field
    (absent = version 1 = {!protocol_version}). Unknown {e fields} are
    ignored — additive evolution is free — but a peer that receives a
    version it does not speak refuses the message with a typed error
    instead of guessing. See [docs/server.md].

    See [docs/server.md] for the grammar and examples. *)

module Json = Ac_analysis.Json

(** The protocol version this build speaks (1). *)
val protocol_version : int

(** How a request names its database. *)
type db_ref =
  | Named of string  (** a catalog entry ([USE]-style, field ["use"]) *)
  | Inline of string
      (** the database text itself (field ["db_inline"], for one-shot
          clients without a catalog entry) *)
  | Session  (** whatever the connection last [USE]d *)

(** The closed verb alphabet of the protocol. Server dispatch and the
    router's verb forwarding pattern-match on this variant, so a verb
    added without a handler is a compile error instead of a runtime
    string mismatch. [of_string]/[to_string] form the single, total
    codec — every constructor round-trips (pinned by a qcheck test),
    and [of_string] returns [None] for anything off-alphabet. *)
module Verb : sig
  type t =
    | Count
    | Sample
    | Use
    | Load  (** register a shipped database text in the catalog *)
    | Insert
    | Delete
    | Load_batch
    | Stats
    | Metrics
    | Ping
    | Health

  (** Every constructor, in wire order. *)
  val all : t list

  val to_string : t -> string
  val of_string : string -> t option
end

type params = {
  query : string;
  db : db_ref;
  eps : float;
  delta : float;
  method_ : Approxcount.Api.method_;
  seed : int option;
  jobs : int option;
  timeout_ms : int option;
  deadline_ms : int option;
      (** end-to-end time the client is still willing to wait; the
          scheduler sheds the request (class [deadline], exit 18) when
          it cannot possibly answer in time, and the remaining time
          additionally caps the request budget *)
  max_heap_mb : int option;
  strict : bool;
  trace : bool;
      (** ask the server to trace this request and return the span
          summary inside the response telemetry *)
  tenant : string option;
      (** accounting identity for per-tenant admission quotas
          ([Scheduler]); [None] shares the anonymous pool *)
}

(** Builder with the CLI defaults ([eps = 0.25], [delta = 0.1],
    [method_ = Auto], [strict = false], [trace = false]). *)
val params :
  ?eps:float ->
  ?delta:float ->
  ?method_:Approxcount.Api.method_ ->
  ?seed:int ->
  ?jobs:int ->
  ?timeout_ms:int ->
  ?deadline_ms:int ->
  ?max_heap_mb:int ->
  ?strict:bool ->
  ?trace:bool ->
  ?tenant:string ->
  db:db_ref ->
  string ->
  params

(** Exposition format of the [METRICS] verb. *)
type metrics_format = Metrics_json | Metrics_prometheus

val metrics_format_name : metrics_format -> string
val metrics_format_of_name : string -> metrics_format option

type request =
  | Count of params
  | Sample of { params : params; draws : int }
  | Use of string
  | Load of { name : string; text : string }
      (** register [text] (a [Structure_io] database) in the catalog as
          [name], replacing any existing slot — how a fleet router ships
          shards to its workers *)
  | Insert of {
      db : db_ref;
      rel : string;
      tuples : int array list;
      batch_id : string option;
    }
  | Delete of {
      db : db_ref;
      rel : string;
      tuples : int array list;
      batch_id : string option;
    }
  | Load_batch of {
      db : db_ref;
      ops : Ac_live.Live.Db.op list;
          (** travel as [{"op","rel","tuple"}] objects, the journal's own
              op shape ([Ac_live.Journal.op]); [INSERT] and [DELETE] are
              sugar for a batch of same-direction ops over one relation,
              and all three apply atomically under one version bump *)
      batch_id : string option;
    }
  | Stats
  | Metrics_req of { format : metrics_format }
  | Ping
  | Health

val verb_of_request : request -> Verb.t

(** Stable lowercase verb slug, used in error messages and the
    per-verb request metrics. *)
val verb_name : request -> string

(** Safe to resend after a transport fault: the service verbs, any
    {e seeded} [COUNT]/[SAMPLE], and any mutation carrying a
    [batch_id] (the daemon's dedupe table replays the stored result
    instead of applying twice). Unseeded requests draw a fresh seed per
    run, and an id-less mutation would double-apply — the retrying
    client refuses those with a typed [Retry_unsafe]. *)
val idempotent : request -> bool

(** One failed rung of the degradation trail, flattened for the wire. *)
type attempt = { rung : string; error_class : string; error_message : string }

(** A finished [COUNT], 1:1 with [Approxcount.Api.response]. *)
type outcome = {
  estimate : float;
  exact : bool;
  rung : string option;
  guarantee : bool;
  degraded : bool;
  attempts : attempt list;
  seed : int;
  jobs : int;
  ticks : int;
  elapsed_ms : float;
  trace : Ac_obs.Trace.summary option;
      (** span summary, present iff the request set [trace] (and the
          outcome was computed, not replayed from the result cache) *)
  plan_cache : string;  (** ["hit"] | ["miss"] | ["bypass"] *)
  result_cache : string;
}

(** The outcome of a finished [Approxcount.Api.run], with the given
    cache provenance. *)
val outcome_of_response :
  plan_cache:string -> result_cache:string -> Approxcount.Api.response -> outcome

(** The [HEALTH] verb's payload: liveness (the dispatch loop answers),
    readiness (not draining), queue depth and the crash-recovery flag. *)
type health = {
  ready : bool;  (** accepting and serving (false while draining) *)
  live : bool;  (** the process answers at all — always true in-band *)
  draining : bool;
  in_flight : int;
  queue_capacity : int;
  catalog_entries : int;
  recovered : bool;
      (** the catalog was replayed from the manifest after a crash *)
  uptime_ms : float;
}

type response =
  | Counted of outcome
  | Sampled of {
      samples : int array option array;
      seed : int;
      jobs : int;
      ticks : int;
      elapsed_ms : float;
      trace : Ac_obs.Trace.summary option;
    }
  | Used of { name : string; fingerprint : string; universe : int; size : int }
  | Loaded of {
      name : string;
      fingerprint : string;
      universe : int;
      size : int;
    }  (** a [LOAD] landed: the registered entry's identity *)
  | Mutated of {
      name : string;
      db_version : int;
          (** the database's monotone version {e after} the batch (the
              envelope ["version"] field is the protocol version, so
              this travels as ["db_version"]) *)
      fingerprint : string;  (** rolling fingerprint after the batch *)
      inserted : int;
      deleted : int;
      replayed : bool;
          (** the batch id had already been applied; the stored result
              was returned and nothing changed *)
    }
  | Stats_reply of Json.t
  | Metrics_reply of { format : metrics_format; payload : Json.t }
      (** [payload] is the structured snapshot for [Metrics_json] and a
          [Json.String] holding the Prometheus text exposition for
          [Metrics_prometheus] *)
  | Pong
  | Health_reply of health
  | Refused of { code : int; error_class : string; message : string }

(** [0] success, [3] a degraded (but answered) [COUNT], an
    [Ac_runtime.Error.exit_code] otherwise. *)
val status_of_response : response -> int

val response_of_error : Ac_runtime.Error.t -> response

(** {2 JSON mapping}

    [id] is the optional envelope-level request id: an opaque client
    token echoed verbatim in the response, letting a retrying client
    match responses to requests and discard duplicated or stale frames.
    Decoders expose it through {!json_id}; messages without one decode
    exactly as before. *)

val request_to_json : ?id:string -> request -> Json.t
val request_of_json : Json.t -> (request, string) result
val response_to_json : ?id:string -> response -> Json.t
val response_of_json : Json.t -> (response, string) result

(** The envelope id of a decoded message, if any. *)
val json_id : Json.t -> string option

(** Random values that survive encode, print, parse and decode — drawn
    from the same declarations as the codecs, for round-trip
    properties. *)
val gen_request : Random.State.t -> request
val gen_response : Random.State.t -> response

(** A span summary as carried inside the ["telemetry"] object. *)
val trace_summary_json : Ac_obs.Trace.summary -> Json.t

(** Registry snapshot as the [METRICS] JSON payload: a list of series
    objects ([name], [labels], [type], and the kind-specific value
    fields; histogram bucket bounds are the stable
    [Ac_obs.Metrics.bucket_bounds] contract and do not travel). *)
val metrics_json : Ac_obs.Metrics.t -> Json.t

(** The payload for a [Metrics_reply] in the requested format. *)
val metrics_payload : format:metrics_format -> Ac_obs.Metrics.t -> Json.t

(** {2 Framing} *)

type read = Msg of Json.t | Eof | Bad of string

(** Read one newline-delimited JSON message. [Bad] keeps the stream in
    sync (the offending line has been consumed). *)
val read_json : in_channel -> read

(** Write one message and flush. *)
val write_json : out_channel -> Json.t -> unit
