(** Atomic binary ledger snapshots.

    A snapshot [snap-<cursor>.bin] holds the {!Gridbw_alloc.Ledger.dump}
    image after WAL record [cursor] as one CRC-checked {!Gridbw_wire}
    frame under its own tag, floats stored as IEEE bit patterns.  It
    carries no event history: recovery parses every WAL record anyway,
    so the history for [[0, cursor)] comes from the log and the snapshot
    only spares re-booking it into the ledger.  A snapshot is written to
    a dot-prefixed temp file, fsynced, renamed into place and the
    directory fsynced; then every snapshot but the newest two is
    deleted, so a corrupt newest image or a torn WAL tail below its
    cursor still leaves an older one to start from.

    Snapshot files are untrusted input: anything that does not decode,
    names a different cursor, or does not restore against the fabric is
    skipped in favour of an older snapshot or a full WAL replay. *)

val write : dir:string -> cursor:int -> Gridbw_alloc.Ledger.dump -> unit
(** Write the image for [cursor] and prune all but the newest two. *)

val load_latest :
  dir:string -> max_cursor:int -> Gridbw_topology.Fabric.t -> (int * Gridbw_alloc.Ledger.t) option
(** The newest usable snapshot with [cursor <= max_cursor], as its cursor
    and the ledger restored against [fabric].  Never raises on file
    contents. *)

val tidy : dir:string -> max_cursor:int -> unit
(** Delete leftover [.snap-*.tmp] files from writes a crash cut short,
    and snapshots beyond [max_cursor]: once the log is truncated below
    them they describe records that will be written afresh. *)
