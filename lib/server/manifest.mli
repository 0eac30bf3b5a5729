(** The crash-safe catalog manifest.

    [acqd] snapshots the catalog — database name, snapshot path and
    content fingerprint, plus each live db's snapshot version, rolling
    fingerprint and journal path — to a JSON manifest after every
    file-backed load and every merge compaction, using write-to-temp +
    [rename]: the file on disk is always one complete snapshot, never a
    torn write, so a [kill -9] at any instruction leaves a loadable
    manifest.

    On restart {!recover} replays the manifest: each entry is reloaded
    from its recorded path, its {e content} fingerprint re-verified
    against the recorded one, and then — for mutated catalogs — every
    journal batch with a sequence number above the snapshot's version
    is re-applied through [Ac_live.Live.Db.apply], re-verifying the
    {e rolling} fingerprint chain line by line. A mismatch at either
    level is a hard typed error — the data changed under the manifest,
    and serving it would silently change estimates that clients may
    have cached. Batches already compacted into the snapshot (a crash
    between the manifest rewrite and the journal truncate) are skipped
    by sequence number; replayed batch ids land back in the dedupe
    table, so exactly-once survives the crash. A successful recovery
    is surfaced as the [recovered] flag in [STATS]/[HEALTH] and counted
    by the [acq_recovery_total] / [acq_recovery_entries_total] /
    [acq_recovery_batches_total] metrics. *)

type entry = {
  name : string;
  path : string;
  fingerprint : string;  (** content fingerprint of the snapshot file *)
  db_version : int;  (** db version the snapshot captures (0 = fresh) *)
  live_fingerprint : string;
      (** rolling fingerprint at [db_version]; equals [fingerprint] for
          an unmutated catalog *)
  journal : string option;  (** delta journal replayed above [db_version] *)
  partition : string option;
      (** the fleet partition spec ([Partition.spec_to_string], e.g.
          ["hash:0:2"]) under which a router daemon distributed this
          database — recorded so a restarted router re-cuts the data
          the same way; [None] for non-fleet daemons *)
}

(** The manifest schema version this build writes (1). The live fields
    are additive with static-catalog defaults, so version 1 is
    unchanged; reading refuses other versions with a typed parse
    error. *)
val version : int

(** The file-backed entries of a catalog (in-memory/inline entries have
    no path to replay and are skipped). [partition], when given, is
    stamped on every entry. *)
val snapshot : ?partition:string -> Catalog.t -> entry list

(** Atomic write ([Ac_live.Journal.write_atomic]: temp file, fsync,
    rename, directory fsync). *)
val write : path:string -> entry list -> (unit, Ac_runtime.Error.t) result

(** [write] of [snapshot]. *)
val store :
  path:string -> ?partition:string -> Catalog.t -> (unit, Ac_runtime.Error.t) result

val read : path:string -> (entry list, Ac_runtime.Error.t) result

(** Replay a manifest into the catalog — snapshot loads, content
    fingerprint checks, then journal replay with rolling-fingerprint
    verification; returns the recovered names in manifest order. Typed
    [Io]/[Parse] errors on unreadable files or fingerprint drift at
    either level. *)
val recover :
  path:string -> Catalog.t -> (string list, Ac_runtime.Error.t) result

val entry_to_json : entry -> Ac_analysis.Json.t
val to_json : entry list -> Ac_analysis.Json.t

(** Random entries that survive {!write}/{!read}. *)
val gen_entry : Random.State.t -> entry
