(** Per-connection protocol state.

    A session owns one connection's incremental {!Frame.decoder} and its
    pending output bytes; it is a pure byte-in / byte-out state machine —
    the {!Daemon} does the socket I/O, tests can drive a session from
    strings.  Frame-level errors poison the connection (framing cannot
    resynchronize): the session reports one final error response to send
    and {!want_close} turns true.  Payload-level errors (bad JSON, bad
    version, unknown verb) are per-request: the peer gets a typed error
    response and the connection keeps going. *)

type t

val create : ?timed:bool -> id:int -> peer:string -> unit -> t
(** Frames cap at {!Frame.max_frame_default}.  With [timed] (default
    off), {!next} measures its frame-decode and protocol-parse phases
    for {!stage_ns}. *)

val id : t -> int

(** {2 Input} *)

val feed_sub : t -> Bytes.t -> int -> int -> unit
(** [feed_sub t buf off len]: raw bytes read from the wire, taken from a
    slice of a read buffer without copying them into a string first. *)

type incoming =
  | Request of Protocol.request
  | Undecodable of Protocol.response
      (** a complete frame whose payload did not decode; send the error
          response, keep the connection *)
  | Broken of Protocol.response
      (** the frame stream itself is corrupt; send the error response,
          then close ({!want_close} is now true) *)

val next : t -> incoming option
(** The next complete message, [None] when more bytes are needed.  Call
    repeatedly after each {!feed_sub} until [None]. *)

val stage_ns : t -> float * float
(** [(decode_ns, parse_ns)] of the most recent completed message — the
    frame-decode and payload-parse durations the trace span records as
    its first two stages.  Only meaningful right after {!next} returned
    [Some _] on a [timed] session; [(0., 0.)] otherwise. *)

(** {2 Output} *)

val queue : t -> Protocol.response -> unit
(** Encode, frame, and append to the pending output. *)

val pending : t -> bool
val out_chunk : t -> string
(** Bytes waiting to be written (empty when none). *)

val blit_out : t -> Bytes.t -> int
(** Copy the first pending bytes, as many as fit, to the start of [dst];
    return how many.  Allocates nothing, so a backlog costs at most
    [Bytes.length dst] bytes of copying per write, however long it is.
    The bytes stay pending until {!wrote} says they went out. *)

val wrote : t -> int -> unit
(** Note that the first [n] pending bytes (of {!out_chunk} or
    {!blit_out}) reached the wire. *)

val want_close : t -> bool
(** Close once the pending output has drained. *)

(** {2 Accounting} *)
