(** Deterministic fault injection.

    A {!t} is a seeded stream of chaos decisions consulted at
    instrumentation sites (one {!guard} call per site visit): it can
    raise a typed {!Error.Fault}, sleep to simulate a slow dependency,
    or trip an attached {!Budget.t} to simulate exhaustion mid-run.
    Faults are reproducible two ways: positionally via [plan] (exact
    call numbers, what the fallback-chain tests use) and statistically
    via [p_fail]/[p_delay] with a fixed [seed] (what the chaos suite's
    smoke tests use — same seed, same event stream). *)

type action =
  | Fail of string  (** raise [Error.E (Fault _)] *)
  | Delay_ms of int  (** sleep that many milliseconds *)
  | Exhaust  (** {!Budget.exhaust} the attached budget, then check it *)

type t

(** [plan] maps 1-based {!guard}-call numbers to actions (takes
    precedence over the random stream). [p_fail]/[p_delay] are per-call
    probabilities; random delays last [delay_ms] (default 1). [budget]
    is what [Exhaust] trips; exhausting without one raises a [Fault]
    instead. *)
val create :
  ?plan:(int * action) list ->
  ?p_fail:float ->
  ?p_delay:float ->
  ?delay_ms:int ->
  ?budget:Budget.t ->
  seed:int ->
  unit ->
  t

(** Number of {!guard} calls so far. *)
val calls : t -> int

(** Injected events so far, oldest first: (call number, site, action
    description). *)
val history : t -> (int * string * string) list

(** Consult the stream once; [site] labels the instrumentation point in
    fault messages and {!history}. *)
val guard : t -> string -> unit

(** {1 Wire-level faults}

    The connection-fault vocabulary of the chaos proxy
    ([Ac_test_support.Chaos_proxy]): what can happen to one response frame on
    its way back to the client. *)

type wire_fault =
  | Truncate_frame of int
      (** forward only the first [n] bytes, then drop the connection *)
  | Delay_frame_ms of int  (** hold the frame for [n] ms, then forward *)
  | Drop_connection  (** drop the connection instead of forwarding *)
  | Garbage_bytes of int
      (** replace the frame with [n] garbage bytes (the connection
          stays open — the peer must resynchronise) *)
  | Duplicate_frame  (** forward the frame twice *)

(** Stable short rendering: [truncate(3)], [delay(5ms)], [drop],
    [garbage(16)], [duplicate]. *)
val wire_fault_name : wire_fault -> string

(** A seeded per-frame fault schedule, the wire analogue of the
    call-site plan above: positional [faults] (1-based frame numbers)
    take precedence, then a per-frame probability draw. Same seed, same
    fault sequence — every proxy failure mode is replayable. Thread-safe
    (the proxy consults it from per-connection pump threads). *)
module Wire_plan : sig
  type t

  val create :
    ?faults:(int * wire_fault) list ->
    ?p_fault:float ->
    ?delay_ms:int ->
    seed:int ->
    unit ->
    t

  (** Decision for the next frame (advances the frame counter). *)
  val next : t -> wire_fault option

  (** Frames decided so far. *)
  val frames : t -> int

  (** Faults fired so far, oldest first, with their frame numbers. *)
  val history : t -> (int * wire_fault) list
end
