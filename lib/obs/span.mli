(** Request-scoped tracing spans for the serving plane.

    A span covers one request from the first byte of its frame to the
    write of its acknowledged reply, decomposed into the fixed pipeline
    stages.  Spans are flat (stage → accumulated nanoseconds) rather
    than a tree: the serve path has exactly one pipeline, and the flat
    layout keeps the binary form fixed-size for the flight recorder.

    Clock: {!now_ns} is [Unix.gettimeofday] clamped non-decreasing.  A
    span's [time] is a wall-clock instant and its durations share that
    base, so they are wall-clock and can only be truncated (never
    negative) by backwards clock steps.  ({!Obs.span} histograms carry
    no instant and read the monotonic clock instead.) *)

type stage =
  | Frame_decode  (** length-prefix / binary frame decoding *)
  | Protocol_parse  (** request payload parse *)
  | Admit_search  (** the admission decision (WINDOW/GREEDY search) *)
  | Wal_append  (** journaling the decision events (buffered append) *)
  | Commit_fsync
      (** group-commit wait: from this request's decision until the
          round's fsync completed (includes round-mates' handling) *)
  | Reply_write  (** response encode + enqueue *)

val all_stages : stage list
val stage_name : stage -> string

type t

val now_ns : unit -> float
(** Wall clock in nanoseconds, clamped non-decreasing process-wide. *)

val start : conn:int -> unit -> t
(** Open a span with a fresh process-monotone trace id. *)

val make :
  id:int ->
  conn:int ->
  req:int option ->
  time:float ->
  total_ns:float ->
  probes:int ->
  durs:float array ->
  t
(** Rebuild a finished span (decoders, tests).  [durs] must hold one
    duration per stage, in [all_stages] order.
    @raise Invalid_argument on a wrong-sized array. *)

val record : t -> stage -> float -> unit
(** Accumulate [ns] onto a stage (repeats add up). *)

val timed : t option -> stage -> (unit -> 'a) -> 'a
(** Run the thunk, accumulating its duration when a span is present;
    a direct call on [None]. *)

val add_probes : t -> int -> unit
val set_req : t -> int -> unit

val backdate : t -> float -> unit
(** Move the open instant [ns] earlier: work that happened before the
    span object existed (the frame decode that produced the request)
    still counts toward [total_ns]. *)

val finish : t -> unit
(** Set [total_ns] to the time since [start]. *)

val id : t -> int
val conn : t -> int
val req : t -> int option
val time : t -> float
val total_ns : t -> float
val probes : t -> int
val duration : t -> stage -> float
val stage_sum : t -> float
val pp : Format.formatter -> t -> unit

(** {2 Wire form}

    A fixed-layout binary frame under {!frame_tag}, so readers of mixed
    traces skip span records by tag. *)

val frame_tag : int
(** 0x04 — the shared-frame tag for binary span records. *)

module Binary : sig
  include Gridbw_wire.Codec.S with type t = t

  val body_of : t -> string
  val of_body : string -> (t, string) result
end
