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

val add_num : Buffer.t -> float -> unit
(** Append the number rendering [to_string] uses: what ["%.0f"] prints
    for an integral value below 1e15 (["-0"] included), what ["%.17g"]
    prints for any other; raises on non-finite input.  The digits are
    written straight into the buffer. *)

val num_to_string : float -> string
(** {!add_num}'s bytes as a string. *)

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

val parse_number : cursor -> float
(** Scan the number literal at the cursor, as {!parse} reads a value
    that is not an object, array, string or keyword.  The double is the
    one [float_of_string] returns for the literal, bit for bit: plain
    spellings with at most 18 significant digits and a decimal exponent
    within 22 are converted in place, exactly (Clinger's fast path
    below 2^53, a certified double-double quotient above), and any
    other literal, or one whose rounding the quotient cannot certify,
    goes to [float_of_string].  Raises {!Bad} on a malformed literal,
    with the message and offset [float_of_string]'s reader reports. *)

val parse_number_into : cursor -> float array -> int -> unit
(** [parse_number_into c dst k] stores {!parse_number}'s double in
    [dst.(k)] without boxing it (float arrays are flat). *)

val member : string -> t -> t option
(** Field lookup on [Obj]; [None] on other constructors. *)

val to_float : t -> float option
val to_int : t -> int option
val to_str : t -> string option
