(** The replayable mutation journal — newline-JSON, one line per
    applied batch, fsynced before the batch is acknowledged.

    Each line records the batch's journal sequence number (equal to the
    database version {e after} the batch), its idempotency key when the
    client supplied one, the rolling fingerprint after the batch, and
    the operations themselves. Recovery loads the persisted snapshot at
    its manifest version, then replays every line with [seq] greater
    than that version through [Live.Db.apply ~id], verifying the
    fingerprint chain line-by-line — a diverging fingerprint means the
    journal does not belong to this snapshot and recovery refuses.

    The trailing newline is the commit marker: a crash mid-append
    leaves an unterminated final line, which {!replay} silently drops
    (the batch was never acknowledged, so dropping it is correct).
    Unparseable content anywhere {e before} the tail is corruption and
    fails with a typed parse error. *)

type line = {
  seq : int;  (** db version after this batch *)
  id : string option;  (** client idempotency key (wire [batch_id]) *)
  fingerprint : string;  (** rolling fingerprint after this batch *)
  ops : Live.Db.op list;
}

(** The [{"op","rel","tuple"}] shape of one operation — shared with the
    wire's [LOAD_BATCH] elements and [acq load-batch] input lines. *)
val op : Live.Db.op Ac_analysis.Codec.t

(** A fact as an integer array (["tuple"] here, each element of the
    wire's ["tuples"]). *)
val tuple : int array Ac_analysis.Codec.t

(** One journal line, without the newline. *)
val encode_line : line -> string

(** [None] for anything that is not a journal line (never raises). *)
val decode_line : string -> line option

(** Random lines that survive {!encode_line}/{!decode_line}. *)
val gen_line : Random.State.t -> line

(** Append one line durably: single write of the rendered line plus
    newline, then [fsync]; when the append creates the file, the
    containing directory is fsynced too (power-loss durability).
    Creates the file if absent. *)
val append : string -> line -> (unit, Ac_runtime.Error.t) result

(** Read every committed line in order. An absent file is an empty
    journal; a torn (unterminated) final line is dropped; any other
    undecodable line is a [Parse] error. *)
val replay : string -> (line list, Ac_runtime.Error.t) result

(** Truncate (or create) the journal to empty — when a freshly loaded
    file starts a new snapshot lineage. *)
val reset : string -> (unit, Ac_runtime.Error.t) result

(** [truncate path ~upto] atomically drops every line with
    [seq <= upto] — after a merge compaction persists a snapshot at
    version [upto], the compacted prefix is dead weight, but any batch
    appended concurrently (seq > [upto]) must survive. The caller must
    serialize against appends (e.g. [Live.Db.exclusively]). *)
val truncate : string -> upto:int -> (unit, Ac_runtime.Error.t) result

(** [write_atomic path contents] replaces [path] durably: write
    [path.tmp], fsync it, rename it over [path], fsync the directory.
    A crash at any point leaves the old or the new complete file (and
    no [.tmp] behind on a reported failure). Shared by {!truncate}, the
    catalog manifest and compacted snapshots. *)
val write_atomic : string -> string -> (unit, Ac_runtime.Error.t) result
