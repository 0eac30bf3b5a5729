(** A minimal JSON document tree, printer and parser — just enough for
    the machine-readable output of [acq lint --json] / [acq explain
    --json] and the [acqd] wire protocol, without pulling a JSON
    dependency into the core.

    Printing is deterministic (object fields keep insertion order,
    floats render with [%.6g] — [Exact] ones with the shortest
    round-trip rendering — and non-finite floats become [null]), so the
    output can be used as a golden file in CI.

    Parsing accepts standard JSON (RFC 8259) and is total: every
    failure is a {!error} carrying the byte offset of the offending
    character. [parse] composed with {!to_string} is the identity on
    trees whose floats survive the [%.6g] rendering (numbers without a
    [.] or exponent parse as [Int], all others as [Float]); nesting is
    capped at {!max_depth} so adversarial input cannot blow the stack. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Exact of float
      (** a float that must survive the round trip: printed as the
          shortest [%.{6..17}g] that reads back bit-for-bit (so exactly
          like [Float] whenever [%.6g] suffices); the parser never
          produces it — every fractional number parses as [Float] *)
  | String of string
  | List of t list
  | Obj of (string * t) list

val pp : Format.formatter -> t -> unit

(** Compact single-line rendering. *)
val to_string : t -> string

(** Indented multi-line rendering (two-space indent, stable layout). *)
val to_string_pretty : t -> string

(** {2 Parsing} *)

(** A positioned parse failure: [offset] is the byte offset of the
    offending character in the input (equal to the input length at an
    unexpected end of input), [msg] the bare description. *)
type error = { offset : int; msg : string }

val error_message : error -> string

(** Maximum accepted nesting depth of arrays/objects (deeper input is
    rejected with a parse error, not a [Stack_overflow]). *)
val max_depth : int

(** Parse one JSON document; trailing whitespace is allowed, any other
    trailing content is an error. Accepts the full RFC 8259 grammar
    (escapes including [\uXXXX] with surrogate pairs, exponents); a
    number without [.]/[e] in range parses as [Int], every other number
    as [Float]. *)
val parse : string -> (t, error) result

(** Convenience accessors for decoding envelopes: total, [None] on a
    type mismatch. [mem] looks a field up in an [Obj] (first match). *)
val mem : string -> t -> t option

val to_int : t -> int option

(** [Int]s widen to float here, so a field rendered [7] reads back as
    [7.0] when a float is expected. *)
val to_float : t -> float option

val to_str : t -> string option
val to_list : t -> t list option
