(** Framing for the [gridbw serve] wire protocol, two forms behind one
    decoder:

    - [Text] (the default): ["%d %s\n"] — the payload byte length in
      ASCII decimal, one space, the payload, one newline
      ({!Gridbw_wire.Frame.Line}).  The trailing newline is a cheap
      integrity check: a peer whose framing drifted out of sync fails
      loudly instead of silently re-interpreting payload bytes as
      lengths.
    - [Binary]: the length-prefixed binary frame from
      {!Gridbw_wire.Frame} (0xB1 magic, tag byte, LE length, payload,
      CRC32 trailer).

    The binary magic byte is not printable ASCII, so the first byte of a
    frame selects its form — clients opt into binary simply by sending
    binary frames, no handshake, and the session replies in whatever
    form the client last spoke ({!last_format}).  The blocking client
    helpers ({!input}, {!output}) speak [Text] only.

    Decoding is incremental and total: {!feed} bytes as they arrive,
    {!next} yields complete payloads or a typed {!error} — malformed
    input never raises. *)

type format = Text | Binary

type error =
  | Oversized of int  (** declared payload length exceeds [max_frame] *)
  | Malformed_length of string
      (** the length prefix is not a plain decimal number followed by a
          space (leading garbage, no digits, or an unterminated run
          longer than any sane length field) *)
  | Missing_terminator
      (** the byte after the declared payload is not ['\n'] — framing
          has desynchronized *)
  | Corrupt_frame of string
      (** a binary frame failed its CRC or carries an unexpected tag *)

val describe : error -> string

val max_frame_default : int
(** 1 MiB: the largest payload the daemon's sessions and {!input}
    accept. *)

val encode : string -> string
(** The [Text]-framed bytes for one payload. *)

val encode_as : format -> string -> string

val add_as : format -> Buffer.t -> string -> unit
(** Append the framed bytes {!encode_as} would return. *)

val add_buffer_as : format -> Buffer.t -> Buffer.t -> unit
(** [add_buffer_as fmt b payload]: {!add_as} of the payload held in a
    buffer.  A [Text] frame copies it once, buffer to buffer; a [Binary]
    one takes its contents for the CRC. *)

(** {2 Incremental decoding} *)

type decoder

val decoder : ?max_frame:int -> unit -> decoder
(** [max_frame] defaults to {!max_frame_default}. *)

val feed : decoder -> string -> unit
(** Append raw bytes from the wire. *)

val feed_sub : decoder -> Bytes.t -> int -> int -> unit
(** [feed_sub d buf off len] appends [buf.[off, off+len)] — what {!feed}
    does for a string, without the caller first copying a read buffer
    into one.  The decoder keeps no reference to [buf]. *)

val next : decoder -> (string option, error) result
(** [Ok (Some payload)] — one complete frame consumed (either form);
    [Ok None] — more bytes needed; [Error _] — the stream is broken (the
    decoder stays broken: framing errors are not recoverable). *)

val buffered : decoder -> int
(** Bytes fed but not yet consumed by {!next}. *)

val last_format : decoder -> format
(** Form of the most recently completed frame; [Text] before any frame
    has decoded.  Responses are encoded in this form, so a client that
    switches to binary mid-stream gets binary replies from then on. *)

(** {2 Blocking helpers (client side)} *)

val input : in_channel -> (string, [ `Frame of error | `Eof ]) result
(** Read exactly one [Text] frame from a blocking channel.  The client
    side speaks text only: a frame in any other form, a [Binary] one
    included, is [`Frame (Malformed_length _)]. *)

val output : out_channel -> string -> unit
(** Write one [Text]-framed payload and flush the channel. *)
