(** Crash-site carving over a durable store directory
    ({!Gridbw_store.Store}).

    A crash can cut the write-ahead log at any byte.  These helpers carve
    copies of a journaled run at chosen byte offsets — every record
    boundary, mid-record, a flipped byte — so recovery can be exercised
    against the full crash matrix.  They work on raw bytes (a WAL segment
    is a sequence of length-prefixed binary frames) and deliberately do not
    depend on [gridbw_store], keeping the harness independent of the code
    under test.

    Offsets are global positions in the concatenation of the store's
    [wal-*.log] segments in segment order. *)

val copy_store : src:string -> dst:string -> unit
(** Copy every regular file of store directory [src] into [dst]
    (created if missing).  The copy is a valid store directory. *)

val record_boundaries : dir:string -> int list * int
(** [(boundaries, total)]: the global byte offsets at which a WAL record
    starts (sorted, starting with [0] when the log is non-empty and
    excluding [total]), and the total WAL length.  Truncating at a
    boundary cuts cleanly {e before} that record; truncating strictly
    between two boundaries leaves a torn record. *)

val truncate_at : dir:string -> int -> unit
(** Cut the WAL to its first [n] bytes, as a crash at that offset would:
    later segments are deleted, the segment containing the cut is
    rewritten to its surviving prefix (removed entirely when empty). *)

val flip_byte : dir:string -> int -> unit
(** Corrupt the WAL byte at global offset [n] (XOR [0xff]) in place —
    a bit-rot / misdirected-write drill for the CRC check.  Raises
    [Invalid_argument] if [n] is past the end of the log. *)
