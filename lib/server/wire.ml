module Json = Ac_analysis.Json
module Codec = Ac_analysis.Codec
module Api = Approxcount.Api
module Planner = Approxcount.Planner
module Error = Ac_runtime.Error
module Trace = Ac_obs.Trace
module Metrics = Ac_obs.Metrics
module Live = Ac_live.Live
module Journal = Ac_live.Journal

(* Protocol version. Negotiation rule (docs/server.md): every message
   may carry a "version" field; a missing field means version 1; a
   peer seeing a version it does not speak refuses with a typed error;
   unknown fields are always ignored, so additive evolution does not
   bump the version. *)
let protocol_version = 1

type db_ref = Named of string | Inline of string | Session

(* The closed verb alphabet. Dispatch pattern-matches on this variant
   instead of on strings, so a verb added to the protocol without a
   handler is a compile error (non-exhaustive match), not a runtime
   "unknown verb" surprise; the name table is the single, total codec
   (pinned by a qcheck round-trip test). *)
module Verb = struct
  type t =
    | Count | Sample | Use | Load | Insert | Delete | Load_batch | Stats | Metrics
    | Ping | Health

  let names =
    [ (Count, "count"); (Sample, "sample"); (Use, "use"); (Load, "load");
      (Insert, "insert"); (Delete, "delete"); (Load_batch, "load_batch");
      (Stats, "stats"); (Metrics, "metrics"); (Ping, "ping"); (Health, "health") ]

  let all = List.map fst names
  let to_string v = List.assoc v names

  let of_string s =
    List.find_map (fun (v, n) -> if String.equal n s then Some v else None) names
end

type params = {
  query : string; db : db_ref; eps : float; delta : float; method_ : Api.method_;
  seed : int option; jobs : int option; timeout_ms : int option;
  deadline_ms : int option; max_heap_mb : int option; strict : bool; trace : bool;
  tenant : string option;
}

let params ?(eps = 0.25) ?(delta = 0.1) ?(method_ = Api.Auto) ?seed ?jobs
    ?timeout_ms ?deadline_ms ?max_heap_mb ?(strict = false) ?(trace = false)
    ?tenant ~db query =
  { query; db; eps; delta; method_; seed; jobs; timeout_ms; deadline_ms;
    max_heap_mb; strict; trace; tenant }

type metrics_format = Metrics_json | Metrics_prometheus

let metrics_format_name = function Metrics_json -> "json" | Metrics_prometheus -> "prometheus"

let metrics_format_of_name = function
  | "json" -> Some Metrics_json
  | "prometheus" | "prom" | "text" -> Some Metrics_prometheus
  | _ -> None

type request =
  | Count of params
  | Sample of { params : params; draws : int }
  | Use of string
  | Load of { name : string; text : string }
  | Insert of { db : db_ref; rel : string; tuples : int array list; batch_id : string option }
  | Delete of { db : db_ref; rel : string; tuples : int array list; batch_id : string option }
  | Load_batch of { db : db_ref; ops : Live.Db.op list; batch_id : string option }
  | Stats
  | Metrics_req of { format : metrics_format }
  | Ping
  | Health

let verb_of_request = function
  | Ping -> Verb.Ping | Stats -> Verb.Stats | Metrics_req _ -> Verb.Metrics
  | Use _ -> Verb.Use | Load _ -> Verb.Load | Count _ -> Verb.Count
  | Sample _ -> Verb.Sample | Insert _ -> Verb.Insert | Delete _ -> Verb.Delete
  | Load_batch _ -> Verb.Load_batch | Health -> Verb.Health

let verb_name r = Verb.to_string (verb_of_request r)

(* A request is idempotent — safe to resend after a transport fault —
   iff replaying it cannot change the answer or spend budget twice.
   Seeded COUNT/SAMPLE are deterministic (and the daemon dedupes them
   against the result cache and in-flight table); unseeded ones draw a
   fresh seed per run, so a retry would silently answer a different
   random experiment. Mutations are idempotent iff they carry a
   [batch_id]: the daemon's live-db dedupe table replays the stored
   result instead of applying the batch twice. LOAD replaces the slot
   with the shipped content, so resending it converges. *)
let idempotent = function
  | Ping | Stats | Metrics_req _ | Use _ | Health | Load _ -> true
  | Count p -> p.seed <> None
  | Sample { params; _ } -> params.seed <> None
  | Insert { batch_id; _ } | Delete { batch_id; _ } | Load_batch { batch_id; _ }
    ->
      batch_id <> None

(* ---------- record declarations ---------- *)

(* Every record below is declared once: its members in wire order, each
   with its rule for absent, null and ill-typed values (Codec). The
   encoder, the decoder and the round-trip generator all come from that
   declaration. Requests are strict — an ill-typed field is a typed
   refusal — while responses default most fields, so a newer server's
   replies still decode here. *)

let sprintf = Printf.sprintf

let method_kind =
  Codec.enum ~unknown:(sprintf "unknown method %S") Api.method_to_string Api.method_of_string
    Approxcount.(
      Api.[ Auto; Fpras; Fptras Colour_oracle.Tree_dp; Fptras Colour_oracle.Generic;
            Fptras Colour_oracle.Direct; Exact; Brute ])

let format_kind =
  Codec.enum ~unknown:(sprintf "unknown metrics format %S") metrics_format_name
    metrics_format_of_name [ Metrics_json; Metrics_prometheus ]

(* ε and δ travel bit-exact and must be in range (Api.check_accuracy);
   the generator includes the values %.6g cannot carry *)
let accuracy which =
  let gen rs =
    match (which, Random.State.int rs 3) with
    | `Eps, 0 -> 1.0 /. 3.0
    | `Delta, 0 -> 0.1 /. 3.0
    | `Eps, _ -> ldexp (0.5 +. Random.State.float rs 0.5) (Random.State.int rs 12 - 8)
    | `Delta, _ -> 0.001 +. Random.State.float rs 0.998
  in
  Codec.refine ~gen (Api.check_accuracy which) Codec.exact_float

(* "use" names a catalog entry, "db_inline" ships the text, neither
   means the session's database *)
let db_ref get =
  Codec.member get
    ~emit:(fun db (tail : Codec.tail) : Codec.tail ->
      match db with
      | Named n -> ("use", Json.String n) :: tail
      | Inline text -> ("db_inline", Json.String text) :: tail
      | Session -> tail)
    ~read:(fun j ->
      match (Json.mem "use" j, Json.mem "db_inline" j) with
      | Some (Json.String n), None -> Ok (Named n)
      | None, Some (Json.String text) -> Ok (Inline text)
      | None, None -> Ok Session
      | Some _, Some _ -> Error "give either \"use\" or \"db_inline\", not both"
      | _ -> Error "fields \"use\"/\"db_inline\" must be strings")
    ~gen:(fun rs ->
      match Random.State.int rs 3 with
      | 0 -> Session
      | 1 -> Named (Codec.gen Codec.string rs)
      | _ -> Inline (Codec.gen Codec.string rs))

let params_record =
  Codec.(
    record (fun query eps delta method_ strict trace db tenant seed jobs timeout_ms
           deadline_ms max_heap_mb ->
        { query; db; eps; delta; method_; seed; jobs; timeout_ms; deadline_ms;
          max_heap_mb; strict; trace; tenant })
      [ req "query" string (fun p -> p.query);
        dft "eps" (accuracy `Eps) 0.25 (fun p -> p.eps);
        dft "delta" (accuracy `Delta) 0.1 (fun p -> p.delta);
        dft "method" method_kind Api.Auto (fun p -> p.method_);
        dft "strict" bool false (fun p -> p.strict);
        dft ~omit:not "trace" bool false (fun p -> p.trace);
        db_ref (fun p -> p.db);
        opt "tenant" string (fun p -> p.tenant);
        opt "seed" int (fun p -> p.seed);
        opt "jobs" int (fun p -> p.jobs);
        opt "timeout_ms" int (fun p -> p.timeout_ms);
        opt "deadline_ms" int (fun p -> p.deadline_ms);
        opt "max_heap_mb" int (fun p -> p.max_heap_mb) ])

let draws =
  Codec.refine ~gen:(fun rs -> 1 + Random.State.int rs 100)
    (fun d -> if d < 1 then Error "field \"draws\" must be positive" else Ok d)
    Codec.int

let nonempty = sprintf "field %S must be non-empty"
let tuples_missing = "missing field \"tuples\" (a list of tuples)"
let ops_missing = "missing field \"ops\" (a list of operations)"

(* INSERT and DELETE: one relation, a non-empty list of facts *)
let edit_record =
  Codec.(
    record (fun db rel tuples batch_id -> (db, rel, tuples, batch_id))
      [ db_ref (fun (db, _, _, _) -> db);
        req "rel" string (fun (_, rel, _, _) -> rel);
        req ~missing:tuples_missing "tuples"
          (list ~bad:(fun _ -> tuples_missing) ~empty:nonempty Journal.tuple)
          (fun (_, _, tuples, _) -> tuples);
        opt "batch_id" string (fun (_, _, _, id) -> id) ])

let request_case v =
  let case record inj prj = Codec.case (Verb.to_string v) record inj prj in
  let bare r = case (Codec.record () []) (fun () -> r) (fun r' -> if r' = r then Some () else None) in
  match v with
  | Verb.Count -> case params_record (fun p -> Count p) (function Count p -> Some p | _ -> None)
  | Verb.Sample ->
      case
        Codec.(record (fun p d -> (p, d)) [ embed params_record fst; dft "draws" draws 1 snd ])
        (fun (params, draws) -> Sample { params; draws })
        (function Sample { params; draws } -> Some (params, draws) | _ -> None)
  | Verb.Use ->
      case Codec.(record Fun.id [ req "name" string Fun.id ]) (fun name -> Use name)
        (function Use name -> Some name | _ -> None)
  | Verb.Load ->
      case
        Codec.(record (fun n t -> (n, t)) [ req "name" string fst; req "text" string snd ])
        (fun (name, text) -> Load { name; text })
        (function Load { name; text } -> Some (name, text) | _ -> None)
  | Verb.Insert ->
      case edit_record
        (fun (db, rel, tuples, batch_id) -> Insert { db; rel; tuples; batch_id })
        (function Insert { db; rel; tuples; batch_id } -> Some (db, rel, tuples, batch_id) | _ -> None)
  | Verb.Delete ->
      case edit_record
        (fun (db, rel, tuples, batch_id) -> Delete { db; rel; tuples; batch_id })
        (function Delete { db; rel; tuples; batch_id } -> Some (db, rel, tuples, batch_id) | _ -> None)
  | Verb.Load_batch ->
      case
        Codec.(
          record (fun db ops batch_id -> (db, ops, batch_id))
            [ db_ref (fun (db, _, _) -> db);
              req ~missing:ops_missing "ops"
                (list ~bad:(fun _ -> ops_missing) ~empty:nonempty Journal.op)
                (fun (_, ops, _) -> ops);
              opt "batch_id" string (fun (_, _, id) -> id) ])
        (fun (db, ops, batch_id) -> Load_batch { db; ops; batch_id })
        (function Load_batch { db; ops; batch_id } -> Some (db, ops, batch_id) | _ -> None)
  | Verb.Metrics ->
      case
        Codec.(record Fun.id [ dft "format" format_kind Metrics_json Fun.id ])
        (fun format -> Metrics_req { format })
        (function Metrics_req { format } -> Some format | _ -> None)
  | Verb.Stats -> bare Stats
  | Verb.Ping -> bare Ping
  | Verb.Health -> bare Health

let request_cases = List.map request_case Verb.all

(* ---------- responses ---------- *)

type attempt = { rung : string; error_class : string; error_message : string }

type outcome = {
  estimate : float; exact : bool; rung : string option; guarantee : bool;
  degraded : bool; attempts : attempt list; seed : int; jobs : int; ticks : int;
  elapsed_ms : float; trace : Trace.summary option; plan_cache : string;
  result_cache : string;
}

let outcome_of_response ~plan_cache ~result_cache (r : Api.response) =
  {
    estimate = r.Api.estimate;
    exact = r.Api.exact;
    rung = Option.map Planner.rung_name r.Api.rung;
    guarantee = r.Api.guarantee;
    degraded = r.Api.degraded;
    attempts =
      List.map
        (fun (a : Planner.attempt) ->
          {
            rung = Planner.rung_name a.Planner.rung;
            error_class = Error.class_name a.Planner.error;
            error_message = Error.message a.Planner.error;
          })
        r.Api.attempts;
    seed = r.Api.telemetry.Api.seed;
    jobs = r.Api.telemetry.Api.jobs;
    ticks = r.Api.telemetry.Api.ticks;
    elapsed_ms = r.Api.telemetry.Api.elapsed_ms;
    trace = r.Api.telemetry.Api.trace;
    plan_cache;
    result_cache;
  }

type health = {
  ready : bool; live : bool; draining : bool; in_flight : int; queue_capacity : int;
  catalog_entries : int; recovered : bool; uptime_ms : float;
}

type response =
  | Counted of outcome
  | Sampled of {
      samples : int array option array; seed : int; jobs : int; ticks : int;
      elapsed_ms : float; trace : Trace.summary option;
    }
  | Used of { name : string; fingerprint : string; universe : int; size : int }
  | Loaded of { name : string; fingerprint : string; universe : int; size : int }
  | Mutated of {
      name : string; db_version : int; fingerprint : string; inserted : int;
      deleted : int; replayed : bool;
    }
  | Stats_reply of Json.t
  | Metrics_reply of { format : metrics_format; payload : Json.t }
  | Pong
  | Health_reply of health
  | Refused of { code : int; error_class : string; message : string }

let status_of_response = function
  | Counted o -> if o.degraded then 3 else 0
  | Sampled _ | Used _ | Loaded _ | Mutated _ | Stats_reply _ | Metrics_reply _
  | Pong | Health_reply _ ->
      0
  | Refused r -> r.code

let response_of_error e =
  Refused
    { code = Error.exit_code e; error_class = Error.class_name e; message = Error.message e }

let agg =
  Codec.(
    record (fun agg_name count total_ms agg_ticks ->
        { Trace.agg_name; count; total_ms; agg_ticks })
      [ req "name" string (fun a -> a.Trace.agg_name);
        req "count" int (fun a -> a.Trace.count);
        req "total_ms" float (fun a -> a.Trace.total_ms);
        req "ticks" int (fun a -> a.Trace.agg_ticks) ])

(* malformed aggregates are dropped, not refused *)
let summary =
  Codec.(
    record (fun spans summary_dropped wall_ms aggs ->
        { Trace.spans; summary_dropped; wall_ms; aggs })
      [ lax "spans" int 0 (fun s -> s.Trace.spans);
        lax "dropped" int 0 (fun s -> s.Trace.summary_dropped);
        lax "wall_ms" float 0.0 (fun s -> s.Trace.wall_ms);
        lax "aggs" (list ~skip_bad:true (obj agg)) [] (fun s -> s.Trace.aggs) ])

let summary_kind = Codec.obj ~bad:(sprintf "field %S must be an object") summary
let trace_summary_json s = Codec.to_json summary_kind s

(* the telemetry object shared by COUNT and SAMPLE replies *)
let telemetry ~seed ~jobs ~ticks ~elapsed_ms ~trace =
  Codec.(
    nest ~missing:"missing \"telemetry\" object"
      ~bad:"malformed \"telemetry\" object" "telemetry"
      [ req "seed" int seed; req "jobs" int jobs; req "ticks" int ticks;
        req "elapsed_ms" float elapsed_ms; lax_opt "trace" summary_kind trace ])

(* the estimate travels twice: "estimate" (%.6g, for people) and
   "estimate_hex" (%h, bit-exact), which decoders prefer *)
let estimate get =
  Codec.member get
    ~emit:(fun e (tail : Codec.tail) : Codec.tail ->
      ("estimate", Json.Float e) :: ("estimate_hex", Json.String (sprintf "%h" e)) :: tail)
    ~read:(fun j ->
      match Json.mem "estimate_hex" j with
      | Some (Json.String h) ->
          Option.to_result ~none:"unreadable \"estimate_hex\"" (float_of_string_opt h)
      | _ ->
          Option.to_result ~none:"missing \"estimate\""
            (Option.bind (Json.mem "estimate" j) Json.to_float))
    ~gen:(Codec.gen Codec.exact_float)

let attempt =
  Codec.(
    record (fun rung error_class error_message -> { rung; error_class; error_message })
      [ req "rung" string (fun (a : attempt) -> a.rung);
        req "class" string (fun a -> a.error_class);
        req "message" string (fun a -> a.error_message) ])

let outcome =
  Codec.(
    record (fun estimate exact rung guarantee degraded attempts seed jobs ticks
           elapsed_ms trace plan_cache result_cache ->
        { estimate; exact; rung; guarantee; degraded; attempts; seed; jobs; ticks;
          elapsed_ms; trace; plan_cache; result_cache })
      [ estimate (fun o -> o.estimate);
        dft "exact" truthy false (fun o -> o.exact);
        lax "rung" (nullable string) None (fun o -> o.rung);
        dft "guarantee" truthy true (fun o -> o.guarantee);
        dft "degraded" truthy false (fun o -> o.degraded);
        dft "attempts"
          (list (with_error (fun _ -> "malformed attempt entry") (obj attempt)))
          []
          (fun o -> o.attempts);
        telemetry ~seed:(fun o -> o.seed) ~jobs:(fun o -> o.jobs)
          ~ticks:(fun o -> o.ticks) ~elapsed_ms:(fun o -> o.elapsed_ms)
          ~trace:(fun (o : outcome) -> o.trace);
        nest "cache"
          [ lax "plan" string "bypass" (fun o -> o.plan_cache);
            lax "result" string "bypass" (fun o -> o.result_cache) ] ])

let health =
  Codec.(
    record (fun ready live draining in_flight queue_capacity catalog_entries
           recovered uptime_ms ->
        { ready; live; draining; in_flight; queue_capacity; catalog_entries;
          recovered; uptime_ms })
      [ dft "ready" truthy false (fun h -> h.ready);
        dft "live" truthy false (fun h -> h.live);
        dft "draining" truthy false (fun h -> h.draining);
        nest "queue"
          [ lax "in_flight" int 0 (fun h -> h.in_flight);
            lax "capacity" int 0 (fun h -> h.queue_capacity) ];
        lax "catalog_entries" int 0 (fun h -> h.catalog_entries);
        dft "recovered" truthy false (fun h -> h.recovered);
        lax "uptime_ms" float 0.0 (fun h -> h.uptime_ms) ])

(* USE and LOAD answer with the entry's identity *)
let identity =
  Codec.(
    record (fun name fingerprint universe size -> (name, fingerprint, universe, size))
      [ req "name" string (fun (n, _, _, _) -> n);
        req "fingerprint" string (fun (_, f, _, _) -> f);
        lax "universe" int 0 (fun (_, _, u, _) -> u);
        lax "size" int 0 (fun (_, _, _, s) -> s) ])

(* a refusal carries no verb; its code is the envelope's "status" *)
let refused =
  Codec.(
    case "error"
      (record
         (fun code error_class message -> (code, error_class, message))
         [ lax ~omit:(fun _ -> true) "status" int 16 (fun (c, _, _) -> c);
           nest "error"
             [ lax "class" string "internal" (fun (_, c, _) -> c);
               lax "message" string "(no message)" (fun (_, _, m) -> m) ] ])
      (fun (code, error_class, message) -> Refused { code; error_class; message })
      (function
        | Refused { code; error_class; message } -> Some (code, error_class, message)
        | _ -> None))

let sample_entries = "missing \"samples\" list"

let response_cases : response Codec.case list =
  Codec.
    [ case "count" outcome (fun o -> Counted o) (function Counted o -> Some o | _ -> None);
      case "sample"
        (record
           (fun samples seed jobs ticks elapsed_ms trace ->
             (samples, seed, jobs, ticks, elapsed_ms, trace))
           [ req ~missing:sample_entries "samples"
               (array ~bad:(fun _ -> sample_entries)
                  (nullable
                     (array ~bad:(fun _ -> "malformed sample entry")
                        (with_error (fun _ -> "sample entries must be integers") int))))
               (fun (s, _, _, _, _, _) -> s);
             telemetry ~seed:(fun (_, s, _, _, _, _) -> s)
               ~jobs:(fun (_, _, j, _, _, _) -> j) ~ticks:(fun (_, _, _, t, _, _) -> t)
               ~elapsed_ms:(fun (_, _, _, _, e, _) -> e) ~trace:(fun (_, _, _, _, _, t) -> t) ])
        (fun (samples, seed, jobs, ticks, elapsed_ms, trace) ->
          Sampled { samples; seed; jobs; ticks; elapsed_ms; trace })
        (function
          | Sampled { samples; seed; jobs; ticks; elapsed_ms; trace } ->
              Some (samples, seed, jobs, ticks, elapsed_ms, trace)
          | _ -> None);
      case "use" identity
        (fun (name, fingerprint, universe, size) -> Used { name; fingerprint; universe; size })
        (function
          | Used { name; fingerprint; universe; size } -> Some (name, fingerprint, universe, size)
          | _ -> None);
      case "load" identity
        (fun (name, fingerprint, universe, size) -> Loaded { name; fingerprint; universe; size })
        (function
          | Loaded { name; fingerprint; universe; size } -> Some (name, fingerprint, universe, size)
          | _ -> None);
      (* one shape for all three mutation verbs; "version" is the
         protocol's, so the db counter travels as "db_version" *)
      case "mutate"
        (record
           (fun name db_version fingerprint inserted deleted replayed ->
             (name, db_version, fingerprint, inserted, deleted, replayed))
           [ req "name" string (fun (n, _, _, _, _, _) -> n);
             lax "db_version" int 0 (fun (_, v, _, _, _, _) -> v);
             req "fingerprint" string (fun (_, _, f, _, _, _) -> f);
             lax "inserted" int 0 (fun (_, _, _, i, _, _) -> i);
             lax "deleted" int 0 (fun (_, _, _, _, d, _) -> d);
             dft "replayed" truthy false (fun (_, _, _, _, _, r) -> r) ])
        (fun (name, db_version, fingerprint, inserted, deleted, replayed) ->
          Mutated { name; db_version; fingerprint; inserted; deleted; replayed })
        (function
          | Mutated { name; db_version; fingerprint; inserted; deleted; replayed } ->
              Some (name, db_version, fingerprint, inserted, deleted, replayed)
          | _ -> None);
      case "stats"
        (record Fun.id [ req ~missing:"missing \"stats\" object" "stats" json Fun.id ])
        (fun blob -> Stats_reply blob)
        (function Stats_reply blob -> Some blob | _ -> None);
      case "metrics"
        (record
           (fun format payload -> (format, payload))
           [ dft "format" format_kind Metrics_json fst;
             req ~missing:"missing \"metrics\" payload" "metrics" json snd ])
        (fun (format, payload) -> Metrics_reply { format; payload })
        (function Metrics_reply { format; payload } -> Some (format, payload) | _ -> None);
      case "ping" (record () []) (fun () -> Pong) (function Pong -> Some () | _ -> None);
      case "health" health (fun h -> Health_reply h) (function
        | Health_reply h -> Some h
        | _ -> None) ]

(* ---------- envelopes ---------- *)

let all_responses = response_cases @ [ refused ]

let ( let* ) = Result.bind
let version_field = ("version", Json.Int protocol_version)

(* The optional envelope-level request id: the client's handle for
   matching responses to requests across retries and duplicated frames.
   Echoed verbatim by the server; requests without one get responses
   without one (the pre-id protocol). *)
let with_id id (members : Codec.tail) : Codec.tail =
  match id with None -> members | Some id -> ("id", Json.String id) :: members

let json_id j =
  match Json.mem "id" j with Some (Json.String s) -> Some s | _ -> None

(* The negotiation rule: absent means version 1, anything we do not
   speak is a hard (typed) refusal — never a silent misparse. *)
let check_version j =
  match Codec.get_opt "version" Codec.int j with
  | Ok None -> Ok ()
  | Ok (Some v) when v = protocol_version -> Ok ()
  | Ok (Some v) ->
      Error
        (sprintf "unsupported protocol version %d (this peer speaks %d)" v
           protocol_version)
  | Error e -> Error e

let request_to_json ?id r =
  let verb, members = Codec.emit_case request_cases r in
  Json.Obj (("verb", Json.String verb) :: version_field :: with_id id members)

let request_of_json j =
  let* () = check_version j in
  let* verb = Codec.get "verb" Codec.string j in
  match Codec.read_case request_cases verb j with
  | Some decoded -> decoded
  | None -> Error (sprintf "unknown verb %S" verb)

let response_to_json ?id r =
  let members =
    match Codec.emit_case all_responses r with
    | "error", members -> members
    | verb, members -> ("verb", Json.String verb) :: members
  in
  Json.Obj
    (("status", Json.Int (status_of_response r))
    :: version_field :: with_id id members)

let response_of_json j =
  let* () = check_version j in
  if Json.mem "error" j <> None then Option.get (Codec.read_case [ refused ] "error" j)
  else
    let* verb = Codec.get "verb" Codec.string j in
    match Codec.read_case response_cases verb j with
    | Some decoded -> decoded
    | None -> Error (sprintf "unknown response verb %S" verb)

let gen_request = Codec.gen_case request_cases
let gen_response = Codec.gen_case all_responses

(* ---------- metrics ---------- *)

(* The registry snapshot as structured JSON: one entry per series.
   Histogram bucket upper bounds are the stable
   [Ac_obs.Metrics.bucket_bounds] contract, so only counts travel. *)
let metrics_json registry =
  let labels_json labels =
    Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) labels)
  in
  let metric_json (m : Metrics.metric) =
    let value_fields =
      match m.Metrics.value with
      | Metrics.Counter v -> [ ("type", Json.String "counter"); ("value", Json.Int v) ]
      | Metrics.Gauge v -> [ ("type", Json.String "gauge"); ("value", Json.Int v) ]
      | Metrics.Histogram h ->
          [ ("type", Json.String "histogram"); ("count", Json.Int h.Metrics.count);
            ("sum", Json.Float h.Metrics.sum);
            ("buckets", Codec.(to_json (array int)) h.Metrics.counts) ]
    in
    Json.Obj
      (("name", Json.String m.Metrics.metric_name)
      :: ("labels", labels_json m.Metrics.metric_labels)
      :: value_fields)
  in
  Json.List (List.map metric_json (Metrics.snapshot registry))

let metrics_payload ~format registry =
  match format with
  | Metrics_json -> metrics_json registry
  | Metrics_prometheus -> Json.String (Metrics.to_prometheus registry)

(* ---------- framing ---------- *)

type read = Msg of Json.t | Eof | Bad of string

let read_json ic =
  match input_line ic with
  | exception End_of_file -> Eof
  | exception Sys_error _ -> Eof
  (* an expired SO_RCVTIMEO surfaces as EAGAIN, which the channel layer
     reports as Sys_blocked_io: same contract as a dead connection *)
  | exception Sys_blocked_io -> Eof
  | line -> (
      if String.trim line = "" then Bad "empty line"
      else
        match Json.parse line with
        | Ok j -> Msg j
        | Error e -> Bad (Json.error_message e))

let write_json oc j =
  output_string oc (Json.to_string j);
  output_char oc '\n';
  flush oc
