(** Write-ahead log with group commit and segment rotation.

    Record framing comes from {!Gridbw_wire.Frame} and is selected per
    writer:

    - [Jsonl]: the historical text line ["%08x %d %s\n"] — CRC32 of the
      payload in hex, payload byte length, payload (a single-line JSON
      event; this form never carries raw newlines).
    - [Binary] (the default): a length-prefixed binary frame — 0xB1
      magic, tag byte, little-endian length, payload, CRC32 trailer.

    Either way the framing makes every torn or corrupted tail
    detectable, and because the binary magic byte is not printable
    ASCII, readers sniff the format {e per record}: segments may mix
    both forms, so reopening an old JSONL journal with a binary writer
    (or vice versa) keeps the log replayable.

    Segments are files [wal-<index>.log] named by the global index of
    their first record, so the directory listing alone orders the log and
    no manifest is needed.

    Durability is batched (group commit): records accumulate in the
    channel buffer and the writer [fsync]s once per [batch] records, or
    sooner when the oldest unsynced record is older than [delay] seconds
    (checked on the next append), or on {!sync}/{!close}. *)

type format = Jsonl | Binary

val format_name : format -> string

type config = {
  batch : int;  (** records per fsync group; 1 = fsync every record *)
  delay : float;  (** max seconds an unsynced record may age before the next append forces a sync *)
  segment_bytes : int;  (** rotate to a new segment once the open one reaches this size *)
}

val default_config : config
(** [{ batch = 64; delay = 0.05; segment_bytes = 4 MiB }] *)

val record_tag : int
(** Frame tag of a [Binary] record: a record is
    [Gridbw_wire.Frame.add ~tag:record_tag payload]. *)

val crc32 : string -> int32
(** IEEE 802.3 CRC32 — alias of {!Gridbw_wire.Crc32.digest}. *)

val frame : string -> string
(** One [Jsonl]-framed record, newline included.  Raises
    [Invalid_argument] when the payload contains a newline. *)

val parse_frame : string -> (string, string) result
(** Validate one [Jsonl] record line (without its newline) back to its
    payload; [Error] names what broke. *)

type writer = {
  dir : string;
  config : config;
  format : format;  (** framing used for new appends *)
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
  frame : Buffer.t;
      (** the record being appended, framed in place and reused by every
          append of this writer *)
}

val create :
  ?config:config -> ?format:format -> ?kill_after:int -> ?on_sync:(int -> unit) ->
  dir:string -> unit -> writer
(** Open a fresh log in [dir] (first segment [wal-0000000000.log]).
    [format] defaults to [Binary].  [on_sync n] is called after every
    fsync with the number of records in the synced group.  [kill_after n]
    is a crash-injection hook: the [n]th append writes only half of its
    frame, flushes, and SIGKILLs the process — a deterministically torn
    tail for recovery drills. *)

val append : writer -> string -> unit
(** Frame one payload into the writer's reusable {!writer.frame} buffer,
    hand it to the segment channel, then group-commit per the config.
    [Jsonl] payloads must not contain a newline; [Binary] payloads are
    arbitrary bytes. *)

val sync : writer -> unit
(** Flush and fsync any unsynced records now. *)

val close : writer -> unit
(** {!sync} then close the open segment. *)

(** {2 Torn-tolerant scanning} *)

type record = {
  index : int;  (** global record index *)
  seg : string;  (** segment path *)
  off : int;  (** byte offset of the record inside its segment *)
  bytes : int;  (** framed size on disk *)
  format : format;  (** framing this record was found in *)
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
(** Read every segment in index order, sniff each record's format, and
    validate its frame.  Scanning stops at the first invalid record
    (torn frame, malformed field, length or CRC mismatch, segment-index
    gap); everything after it — including later segments — is reported
    beyond the cut. *)

val truncate : dir:string -> scan -> keep:int -> unit
(** Physically truncate the log so exactly the first [keep] valid records
    remain: later segments are deleted and the cut segment is truncated in
    place.  [keep] may be less than [scan.valid] (the store cuts earlier
    when a CRC-valid record fails event parsing). *)

val reopen :
  ?config:config -> ?format:format -> ?kill_after:int -> ?on_sync:(int -> unit) ->
  dir:string -> records:int -> unit -> writer
(** Open the (already truncated) log for append: the last remaining
    segment is continued, [records] restates the global record count.
    [format] (default [Binary]) governs new appends only — existing
    records keep whatever framing they were written with. *)
