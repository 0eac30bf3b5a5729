(** Typed lint diagnostics with stable codes.

    Every finding of the static analyzer is a {!t}: a stable {!code}
    (QL000…), a {!severity}, an optional character {!span} into the
    textual query (available when the query came through
    [Ecq.parse_spans]), a human-readable message and the paper item that
    justifies the diagnostic. Codes never change meaning across
    releases — CI may match on them. *)

type severity = Error | Warning | Info | Hint

type code =
  | Syntax_error          (** QL000 — the query text does not parse *)
  | Unused_variable       (** QL001 — existential variable used once, in a single atom *)
  | Disconnected          (** QL002 — query splits into independent components (cartesian product) *)
  | Diseq_degenerate      (** QL003 — contradictory or duplicate disequality *)
  | Duplicate_atom        (** QL004 — duplicate/subsumed atom *)
  | Negated_twin          (** QL005 — negated atom whose positive twin also occurs: always empty *)
  | Signature_mismatch    (** QL006 — query signature not contained in the database's *)
  | Star_size             (** QL007 — quantified/dominated star size drives the FPTRAS cost *)
  | Width_blowup          (** QL008 — treewidth/fhw exceeds the exact-computation threshold *)
  | Unguarded_variable    (** QL009 — variable not guarded by any positive atom *)
  | Empty_relation        (** QL010 — positive atom over a relation empty in this database *)
  | Quantifier_free       (** QL011 — quantifier-free and disequality-free: exact counting is FPT *)
  | Output_blowup         (** QL012 — instantiated edge-cover bound predicts an output blow-up *)

(** Half-open character range [start, stop) into the query text. *)
type span = { start : int; stop : int }

type t = {
  code : code;
  severity : severity;
  span : span option;
  message : string;
  theorem : string option;
      (** the paper item the diagnostic cites, e.g. ["Observation 10"] *)
}

(** Stable identifier, ["QL000"] … ["QL012"]. QL013 is retired (it
    warned of a complement-materialisation cap no engine path applies)
    and is not reused. *)
val code_id : code -> string

(** Stable kebab-case slug, e.g. ["disconnected-query"]. *)
val code_slug : code -> string

(** ["error"], ["warning"], ["info"], ["hint"]. *)
val severity_name : severity -> string

(** Errors sort first; [compare] orders by severity, then code, then
    span start — the order reports print in. *)
val compare : t -> t -> int

val is_error : t -> bool

(** One line: ["QL005 error [10-22]: …"]. *)
val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
