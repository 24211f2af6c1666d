(** Write-ahead log with group commit and segment rotation.

    Every record is one binary frame from {!Gridbw_wire.Frame}: 0xB1
    magic, tag {!record_tag}, little-endian length, payload, CRC32
    trailer.  The framing makes every torn or corrupted tail detectable;
    a record that does not start with the magic byte is corrupt too.

    Segments are files [wal-<index>.log] named by the global index of
    their first record, so the directory listing alone orders the log and
    no manifest is needed.  Creating, removing or truncating a segment
    also fsyncs the directory (a created one at the next {!sync}), so
    the listing survives power loss.

    Durability is batched (group commit): records accumulate in the
    channel buffer and the writer [fsync]s once per [batch] records, or
    sooner when the oldest unsynced record is older than [delay] seconds
    (checked on the next append), or on {!sync}/{!close}. *)

type config = {
  batch : int;  (** records per fsync group; 1 = fsync every record *)
  delay : float;  (** max seconds an unsynced record may age before the next append forces a sync *)
  segment_bytes : int;  (** rotate to a new segment once the open one reaches this size *)
}

val default_config : config
(** [{ batch = 64; delay = 0.05; segment_bytes = 4 MiB }] *)

val record_tag : int
(** Frame tag of a record: a record is
    [Gridbw_wire.Frame.add ~tag:record_tag payload]. *)

type writer = {
  dir : string;
  config : config;
  on_sync : int -> unit;
  kill_after : int option;
  mutable oc : out_channel;
  mutable seg_path : string;
  mutable seg_bytes : int;
  mutable records : int;  (** global count of records appended (and on disk, modulo the unsynced tail) *)
  mutable total_bytes : int;  (** global WAL size in bytes across all segments *)
  mutable appended : int;  (** records appended since this writer was opened *)
  mutable unsynced : int;
  mutable oldest_unsynced : float;
  mutable dirs : string list;
      (** directories whose entries changed since the last sync (a new
          segment's, say); the next {!sync} fsyncs them *)
  mutable frame : Bytes.t;
      (** the record being appended, framed in place and reused by every
          append of this writer (grown when a record does not fit) *)
}

val create :
  ?config:config -> ?kill_after:int -> ?on_sync:(int -> unit) -> ?parents:string list ->
  dir:string -> unit -> writer
(** Open a fresh log in [dir] (first segment [wal-0000000000.log]).
    [on_sync n] is called after every
    fsync with the number of records in the synced group.  [parents]
    (default none) are more directories for the first {!sync} to fsync:
    the parents of directories just created to hold the log.  [kill_after n]
    is a crash-injection hook: the [n]th append writes only half of its
    frame, flushes, and SIGKILLs the process — a deterministically torn
    tail for recovery drills. *)

val append : writer -> string -> unit
(** Frame one payload into the writer's reusable {!writer.frame} buffer,
    hand it to the segment channel, then group-commit per the config.
    Payloads are arbitrary bytes. *)

val append_buffer : writer -> Buffer.t -> unit
(** {!append} of the buffer's contents, copied straight into the frame
    without a string in between. *)

val sync : writer -> unit
(** Flush and fsync any unsynced records now, then any directory in
    {!writer.dirs}.  A segment created by {!create}, {!reopen} or a
    rotation therefore has a durable name before any record in it is
    acknowledged, without a directory fsync on the append path. *)

val close : writer -> unit
(** {!sync} then close the open segment. *)

(** {2 Torn-tolerant scanning} *)

type record = {
  index : int;  (** global record index *)
  seg : string;  (** segment path *)
  off : int;  (** byte offset of the record inside its segment *)
  bytes : int;  (** framed size on disk *)
  payload : string;
}

type scan = {
  records : record list;  (** valid records, log order *)
  valid : int;  (** [List.length records] *)
  cut : (string * int) option;
      (** segment path and byte offset where valid data ends, when the log
          has a torn/corrupt tail; [None] for a clean log *)
  disk_bytes : int;  (** total bytes currently on disk across all segments *)
  torn : string option;  (** why scanning stopped early, when it did *)
}

val scan : dir:string -> scan
(** Read every segment in index order and validate each record's frame.
    Scanning stops at the first invalid record (torn frame, bad magic or
    tag byte, CRC mismatch, segment-index gap); everything after it — including later segments — is reported
    beyond the cut. *)

val truncate : dir:string -> scan -> keep:int -> unit
(** Physically truncate the log so exactly the first [keep] valid records
    remain: later segments are deleted and the cut segment is truncated in
    place, the new size fsynced, then the directory, at once.  [keep] may be less than [scan.valid] (the store cuts earlier
    when a CRC-valid record fails event parsing). *)

val reopen :
  ?config:config -> ?kill_after:int -> ?on_sync:(int -> unit) -> dir:string -> records:int ->
  unit -> writer
(** Open the (already truncated) log for append: the last remaining
    segment is continued, [records] restates the global record count. *)
