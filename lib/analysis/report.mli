(** A full analysis report: classification + diagnostics, renderable as
    text or JSON (the [acq lint --json] schema, see [docs/analysis.md]).

    {!analyze} works on an already-built query (classification always
    present); {!analyze_text} parses first and turns parse failures into
    span-carrying diagnostics — QL000 for plain syntax errors, QL003
    when the text contains a contradictory disequality ([x != x],
    possibly via equality unification) — with no classification. *)

type t = {
  query : Ac_query.Ecq.t option;  (** [None] only when parsing failed *)
  classification : Classification.t option;
  diagnostics : Diagnostic.t list;  (** sorted: errors first *)
  cost : Cost.t option;
      (** the static cost analysis, instantiated from the database's
          catalog stats — present exactly when [analyze] got a [db].
          Stored in the report so the daemon's plan cache (keyed by the
          database fingerprint) invalidates it for free. *)
}

(** Classify [q], instantiate the cost model against [db]'s stats when
    given, and run the lints. The query-only part — {!Classify.classify}
    and {!Cost.prepare} — is memoised per [Ac_query.Ecq.key] (thread-
    safe, at most {!memo_capacity} keys), so a re-analysis after a
    database write pays only {!Cost.instantiate} and the lints. The
    result equals [Classify.classify] + [Cost.analyze] + [Lints.run]. *)
val analyze :
  ?db:Ac_relational.Structure.t ->
  ?spans:(int * int) array ->
  Ac_query.Ecq.t ->
  t

(** The memo's bound (distinct query keys), and its current size. *)
val memo_capacity : int

val memo_length : unit -> int

val analyze_text : ?db:Ac_relational.Structure.t -> string -> t

(** The classification; raises [Invalid_argument] on a parse-failure
    report (callers on the {!analyze} path may rely on its presence). *)
val classification_exn : t -> Classification.t

val errors : t -> Diagnostic.t list
val has_errors : t -> bool

(** [(errors, warnings, infos, hints)]. *)
val tally : t -> int * int * int * int

(** CI exit status: [0] clean of errors, [1] otherwise. *)
val exit_status : t -> int

(** Human rendering: one diagnostic per line, then a summary line. *)
val pp : Format.formatter -> t -> unit

val to_json : t -> Json.t
