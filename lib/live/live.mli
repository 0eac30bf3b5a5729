(** Live mutable databases: main+delta relation storage and versioned,
    fingerprinted databases.

    The catalog's sealed columnar {!Ac_relational.Relation} never
    changes after {!Ac_relational.Structure.seal}. This module makes
    that immutable storage {e mutable} without giving up scan speed,
    using the classic main+delta columnar design: every relation is an
    immutable sealed {b main} segment plus a small mutable {b delta}
    side-table of inserts and delete tombstones. Queries run over a
    merged {b view} whose enumeration order is pinned to ascending
    lexicographic — bit-identical to a freshly rebuilt sealed relation
    holding the same live set — so [Generic_join] over a live view
    produces the same estimate, per seed, as a rebuild from scratch
    (the determinism contract of docs/storage.md).

    {!Db} wraps a named database: a set of live relations plus a
    {b monotone version counter} and a {b rolling fingerprint} that
    advance on every applied batch. [(fingerprint, version)] is the
    cache key component that makes plan/result caches invalidate
    precisely on mutation (see [Cache.db_key]); the rolling fingerprint
    chain is also what journal recovery verifies line-by-line (see
    {!Journal}).

    {b Domain safety.} {!Db} entry points are serialized by an internal
    mutex — safe to call from concurrent server workers. A bare
    {!Relation.t} is not synchronized; the server only touches
    relations through their [Db]. *)

module Relation : sig
  type t

  (** [of_sealed rel] wraps an existing relation as the main segment
      with an empty delta. Seals [rel] (idempotent). *)
  val of_sealed : Ac_relational.Relation.t -> t

  (** An empty live relation (empty sealed main, empty delta). *)
  val create : arity:int -> t

  val arity : t -> int

  (** Live-set membership: in the delta inserts, or in main and not
      tombstoned. *)
  val mem : t -> Ac_relational.Tuple.t -> bool

  (** Exact live-set count: [|main| - |tombstones| + |inserts|]. *)
  val cardinality : t -> int

  (** Rows in the sealed main segment only. *)
  val main_rows : t -> int

  (** Delta side-table size: inserts + tombstones. Zero means {!view}
      returns the main segment itself, at no cost. *)
  val delta_rows : t -> int

  (** [insert t tuple] adds [tuple] to the live set; returns whether the
      set changed (a duplicate insert is a counted no-op). Raises
      [Invalid_argument] on an arity mismatch. *)
  val insert : t -> Ac_relational.Tuple.t -> bool

  (** [delete t tuple] removes [tuple] from the live set; returns
      whether the set changed. *)
  val delete : t -> Ac_relational.Tuple.t -> bool

  (** The merged query view: a {e sealed} relation containing exactly
      the live set, enumerating in canonical ascending-lex order —
      bit-identical to rebuilding a sealed relation from the live
      tuples. Memoized until the next mutation; with an empty delta the
      main segment is returned directly. [budget] is ticked during the
      merge scan (roughly once per 256 rows). *)
  val view : ?budget:Ac_runtime.Budget.t -> t -> Ac_relational.Relation.t

  (** Compact the delta into the main segment (main becomes {!view},
      delta empties). Returns the number of delta rows compacted.
      Content-preserving: {!view} before and after are the same sealed
      relation. *)
  val merge : ?budget:Ac_runtime.Budget.t -> t -> int
end

module Db : sig
  type t

  type op =
    | Insert of { rel : string; tuple : int array }
    | Delete of { rel : string; tuple : int array }

  (** Result of an applied (or replayed) batch. [version] and
      [fingerprint] are the database's values {e after} the batch;
      [inserted]/[deleted] count operations that actually changed the
      live set; [replayed] is true when the batch id was already
      applied and the stored result was returned instead. *)
  type applied = {
    version : int;
    fingerprint : string;
    inserted : int;
    deleted : int;
    replayed : bool;
  }

  (** [of_structure base] wraps a (sealed — sealing is forced) structure
      as a live database at [version] (default [0]) with rolling
      fingerprint [fingerprint] (default [Structure.fingerprint base]).
      At its creation version {!snapshot} returns [base] itself, so an
      unmutated live db shares the original sealed columns. Recovery
      passes the persisted [version]/[fingerprint] to resume the chain. *)
  val of_structure :
    ?version:int -> ?fingerprint:string -> Ac_relational.Structure.t -> t

  val universe_size : t -> int

  (** Monotone: bumped by every applied batch (even an all-no-op one). *)
  val version : t -> int

  (** Rolling fingerprint: starts at the base structure's content
      fingerprint and digests each applied batch's canonical op
      rendering in order. Equal chains ⇔ same edit history. *)
  val fingerprint : t -> string

  (** Total delta rows across all relations. *)
  val delta_rows : t -> int

  (** Total main-segment rows across all relations. *)
  val main_rows : t -> int

  (** Sorted relation symbols (base relations plus any declared by
      inserts). *)
  val symbols : t -> string list

  (** [apply ?id t ops] applies one atomic batch. Every op is validated
      first (universe bounds, arity against the existing or
      batch-declared relation) — a refused batch ([Error (Parse _)])
      leaves the db untouched. Inserting into an unknown relation
      declares it with the tuple's arity; deleting from an unknown
      relation is a counted no-op. On success the version is bumped and
      the fingerprint rolled, {e always} — idempotency is by [id], not
      by content.

      [id] is the batch idempotency key (the wire [batch_id]): a batch
      whose [id] was already applied returns the originally stored
      result with [replayed = true] and changes nothing — this is what
      makes retried [LOAD_BATCH]es apply exactly once.

      [journal] (default: always [Ok ()]) is the durability hook. It
      runs {e inside} the db's critical section, after the batch has
      mutated the state (so it sees the post-batch version/fingerprint)
      but before the idempotency record is stored. Because the mutex
      spans the mutation and the hook, concurrent batches journal in
      version order. If the hook returns [Error], the batch is rolled
      back completely — relations, version, fingerprint and the
      idempotency table are as if the batch never happened — and the
      hook's error is returned: a batch is applied-and-journaled or
      neither. The hook must not call back into this database (the
      mutex is not reentrant). *)
  val apply :
    ?id:string ->
    ?journal:(applied -> (unit, Ac_runtime.Error.t) result) ->
    t ->
    op list ->
    (applied, Ac_runtime.Error.t) result

  (** [record_batch t ~id result] pre-registers an idempotency record
      without applying anything: a later {!apply} with the same [id]
      answers [{ result with replayed = true }]. No-op if [id] is
      already registered. Recovery uses this for journal lines already
      compacted into the loaded snapshot, so a client retry after a
      crash is still answered as a replay (the original change counts
      are not in the journal, so such replays report zero
      inserted/deleted). *)
  val record_batch : t -> id:string -> applied -> unit

  (** [exclusively t f] runs [f] while holding the db's internal mutex,
      serializing it against {!apply} (and its [journal] hook). The
      server uses this to truncate the journal after a merge
      compaction without racing a concurrent append. [f] must not call
      back into this database. *)
  val exclusively : t -> (unit -> 'a) -> 'a

  (** A sealed structure of the live views — what queries run against.
      Memoized per version; at the creation version it is the base
      structure itself. *)
  val snapshot : ?budget:Ac_runtime.Budget.t -> t -> Ac_relational.Structure.t

  (** [(version, fingerprint, snapshot)] read atomically under the db
      mutex — the consistent triple catalog entries are built from. *)
  val current :
    ?budget:Ac_runtime.Budget.t ->
    t ->
    int * string * Ac_relational.Structure.t

  (** Merge-policy predicate: total delta rows ≥ [threshold] (default
      [4096]; [threshold <= 0] disables merging) {e and} delta ≥
      [ratio] (default [0.25]) × total main rows. *)
  val needs_merge : ?threshold:int -> ?ratio:float -> t -> bool

  (** Compact every relation's delta ({!Relation.merge}). Returns total
      delta rows compacted. Does {e not} change the version or
      fingerprint — a merge is a physical reorganization, not an edit,
      so caches keyed on [(fingerprint, version)] stay valid. Updates
      the [acq_live_merge_*] metrics when any rows were compacted. *)
  val merge : ?budget:Ac_runtime.Budget.t -> t -> int
end

(** Canonical batch rendering digested by the rolling fingerprint —
    exposed for tests and for {!Journal} documentation. *)
val ops_to_string : Db.op list -> string

(** [roll_fingerprint fp ops] — the fingerprint after applying [ops] to
    a database whose rolling fingerprint is [fp]. *)
val roll_fingerprint : string -> Db.op list -> string
