(** Minimal JSON values, just enough for the telemetry trace format.

    Floats print with ["%.17g"] so every finite [float] round-trips
    bit-exactly through a trace file — the replay-equals-live check in
    [gridbw replay-trace] depends on this.  Non-finite floats are not
    representable (RFC 8259) and raise on output. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no whitespace). *)

val num_to_string : float -> string
(** The number rendering [to_string] uses: what ["%.0f"] prints for an
    integral value below 1e15 (["-0"] included), what ["%.17g"] prints
    for any other; raises on non-finite input. *)

val escape : Buffer.t -> string -> unit
(** Append [s] as the quoted, escaped string literal [to_string] writes
    for [Str s].  With {!num_to_string} this lets a renderer that skips
    the tree write the same bytes. *)

val parse : string -> (t, string) result
(** Parse one JSON document; trailing garbage is an error.  The error
    string names the offending character position. *)

(** {2 Scanning}

    The parser's own cursor and number scanner, for decoders that read a
    known schema without building a tree.  A number scanned here is the
    double {!parse} would produce from the same bytes. *)

type cursor = { s : string; n : int; mutable pos : int }

exception Bad of string
(** A scanning error, with the message {!parse} would report. *)

val skip_ws : cursor -> unit
(** Advance past JSON whitespace. *)

val parse_number : cursor -> float
(** Scan the number literal at the cursor, as {!parse} reads a value
    that is not an object, array, string or keyword: an integer literal
    of at most 15 digits converts exactly, anything else goes through
    [float_of_string].  Raises {!Bad} on a malformed literal. *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)

val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option
