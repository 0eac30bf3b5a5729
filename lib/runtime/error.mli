(** Typed errors for the public API.

    Every failure class the pipelines can hit maps to one constructor,
    one stable message shape and one CLI exit code (see
    [docs/robustness.md]); [Result]-returning entry points
    ([Planner.count_governed], [Structure_io.load_result], …) return these
    instead of raising bare [Failure] strings. *)

type t =
  | Parse of { source : string; msg : string }
      (** malformed query text or database file; [source] names it *)
  | Io of { file : string; msg : string }
      (** filesystem-level failure, including the loader's size cap *)
  | Signature_mismatch of string
      (** query signature not contained in the database's *)
  | Budget of Budget.trip  (** a resource budget tripped *)
  | Numeric_overflow of string
      (** an estimate left the representable range (nan/infinite) *)
  | Fault of string  (** injected by {!Chaos} *)
  | Overloaded of string
      (** admission control refused the request: the server's bounded
          queue is full — retry later, the server is healthy *)
  | Internal of string  (** everything else — a bug if a user sees it *)
  | Deadline_exceeded of { deadline_ms : int; msg : string }
      (** the request's end-to-end deadline passed before (or instead
          of) an answer: shed at admission, or the client-side retry
          loop ran out of time *)
  | Retry_unsafe of { verb : string; msg : string }
      (** a transport fault hit a non-idempotent request (unseeded
          COUNT/SAMPLE): retrying could double-spend or change the
          answer, so the client refuses instead of guessing *)
  | Sealed_mutation of string
      (** a write ([Relation.add], [Structure.add_fact], …) reached a
          sealed — immutable, columnar — relation or structure; the
          build phase is over, so the mutation is a caller bug, never a
          silent hashtable write *)

exception E of t

val message : t -> string

(** Stable class slug: parse | io | signature | budget | overflow |
    fault | overloaded | internal | deadline | retry | sealed. *)
val class_name : t -> string

(** CLI exit codes: 10 parse, 11 io, 12 signature, 13 budget,
    14 overflow, 15 fault, 16 internal, 17 overloaded, 18 deadline,
    19 retry, 20 sealed. Exit 21 is retired (it was the materialised
    complement's overflow) and is not reused. *)
val exit_code : t -> int

(** Map an exception to its typed error; [None] for exceptions that
    should keep propagating (e.g. [Stack_overflow], [Sys.Break]). *)
val of_exn : exn -> t option

(** Run [f], catching {!E}, {!Budget.Budget_exceeded}, [Failure] and
    [Invalid_argument]. With [source], [Failure]/[Invalid_argument]
    become [Parse { source; _ }]; without, they become [Internal]. *)
val guard : ?source:string -> (unit -> 'a) -> ('a, t) result

val raise_e : t -> 'a
val pp : Format.formatter -> t -> unit
