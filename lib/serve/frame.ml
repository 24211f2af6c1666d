(* Length-prefixed framing.  See frame.mli for the two wire forms. *)

module Wire_frame = Gridbw_wire.Frame

type format = Text | Binary

let format_name = function Text -> "text" | Binary -> "binary"

type error =
  | Oversized of int
  | Malformed_length of string
  | Missing_terminator
  | Corrupt_frame of string

let describe = function
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes declared)" n
  | Malformed_length what -> "malformed length prefix: " ^ what
  | Missing_terminator -> "missing frame terminator (framing desynchronized)"
  | Corrupt_frame what -> "corrupt binary frame: " ^ what

let max_frame_default = 1024 * 1024

(* A length field longer than this cannot describe any frame we would
   accept (10 decimal digits > 1 GiB); treating it as malformed bounds
   how much garbage a broken peer can make us buffer. *)
let max_digits = 10

(* Frame tag for serve-protocol payloads on the binary form; the event
   codec owns 0x01 and the WAL 0x02. *)
let binary_tag = 0x03

let add_as fmt b payload =
  match fmt with
  | Text -> Wire_frame.Line.encode b payload
  | Binary -> Wire_frame.add b ~tag:binary_tag payload

let add_buffer_as fmt b payload =
  match fmt with
  | Text -> Wire_frame.Line.add_buffer b payload
  | Binary -> Wire_frame.add b ~tag:binary_tag (Buffer.contents payload)

(* 16 bytes cover either form's overhead: at most 10 length digits, a
   space and a newline, or the binary frame's 10. *)
let encode_as fmt payload =
  let b = Buffer.create (String.length payload + 16) in
  add_as fmt b payload;
  Buffer.contents b

let encode = encode_as Text

(* Unconsumed input lives in [buf.[start, stop)].  [feed] appends in
   place and [next] advances [start], so n bytes fed in any number of
   pieces cost O(n) copying: the buffer doubles when full, and slides its
   live bytes to the front instead when at least half of it is consumed
   space. *)
type decoder = {
  max_frame : int;
  mutable buf : Bytes.t;
  mutable start : int;
  mutable stop : int;
  mutable err : error option;
  mutable last : format;  (* format of the last completed frame *)
}

let initial_capacity = 4096

(* A drained buffer larger than this (one big frame went through) is
   dropped for a fresh small one, so an idle connection holds little. *)
let keep_capacity = 256 * 1024

let decoder ?(max_frame = max_frame_default) () =
  { max_frame; buf = Bytes.create initial_capacity; start = 0; stop = 0; err = None; last = Text }

let feed_sub d src off len =
  if len > 0 then begin
    let cap = Bytes.length d.buf and live = d.stop - d.start in
    if d.stop + len > cap then begin
      let dst =
        if live + len <= cap / 2 then d.buf else Bytes.create (Int.max (2 * cap) (live + len))
      in
      Bytes.blit d.buf d.start dst 0 live;
      d.buf <- dst;
      d.start <- 0;
      d.stop <- live
    end;
    Bytes.blit src off d.buf d.stop len;
    d.stop <- d.stop + len
  end

(* [feed_sub] only reads its source, so the string is never mutated. *)
let feed d s = feed_sub d (Bytes.unsafe_of_string s) 0 (String.length s)

let buffered d = d.stop - d.start
let last_format d = d.last

let is_digit c = c >= '0' && c <= '9'

let fail d e =
  d.err <- Some e;
  Error e

(* Consume [used] bytes that decoded to [payload]. *)
let consume d used fmt payload =
  d.start <- d.start + used;
  if d.start = d.stop then begin
    if Bytes.length d.buf > keep_capacity then d.buf <- Bytes.create initial_capacity;
    d.start <- 0;
    d.stop <- 0
  end;
  d.last <- fmt;
  Ok (Some payload)

let next_text d =
  let b = d.buf and p = d.start and n = d.stop - d.start in
  (* the length field: at most [max_digits] digits, one more proves it too long *)
  let j = ref 0 and len = ref 0 in
  while !j < n && !j <= max_digits && is_digit (Bytes.get b (p + !j)) do
    len := (!len * 10) + (Char.code (Bytes.get b (p + !j)) - Char.code '0');
    incr j
  done;
  let j = !j and len = !len in
  if j > max_digits then fail d (Malformed_length "length field too long")
  else if j >= n then Ok None (* possibly a truncated prefix: wait for more bytes *)
  else if j = 0 then
    fail d (Malformed_length (Printf.sprintf "expected a digit, got %C" (Bytes.get b p)))
  else if Bytes.get b (p + j) <> ' ' then
    fail d
      (Malformed_length (Printf.sprintf "expected ' ' after length, got %C" (Bytes.get b (p + j))))
  else if len > d.max_frame then fail d (Oversized len)
  else
    let need = j + 1 + len + 1 in
    if n < need then Ok None
    else if Bytes.get b (p + j + 1 + len) <> '\n' then fail d Missing_terminator
    else consume d need Text (Bytes.sub_string b (p + j + 1) len)

let next_binary d =
  let n = d.stop - d.start in
  if n < Wire_frame.header_bytes then Ok None
  else
    let plen = Int32.to_int (Bytes.get_int32_le d.buf (d.start + 2)) land 0xFFFFFFFF in
    if plen > d.max_frame then fail d (Oversized plen)
    else if n < Wire_frame.header_bytes + plen + Wire_frame.trailer_bytes then Ok None
    else
      (* The whole frame is buffered, so the decoder reads only bytes
         inside it; the string view does not outlive this call. *)
      match Wire_frame.decode (Bytes.unsafe_to_string d.buf) ~pos:d.start with
      | Incomplete -> Ok None
      | Corrupt msg -> fail d (Corrupt_frame msg)
      | Value ((tag, payload), next) ->
          if tag <> binary_tag then
            fail d (Corrupt_frame (Printf.sprintf "unexpected frame tag %d" tag))
          else consume d (next - d.start) Binary payload

let next d =
  match d.err with
  | Some e -> Error e
  | None ->
      if d.stop = d.start then Ok None
      else if Wire_frame.is_binary (Bytes.get d.buf d.start) then next_binary d
      else next_text d

(* --- blocking channel helpers (the loadgen / test client side): text
   frames only --- *)

let input ?(max_frame = max_frame_default) ic =
  let rec read_len acc digits =
    match input_char ic with
    | exception End_of_file -> Error `Eof
    | ' ' when digits > 0 -> Ok acc
    | c when is_digit c ->
        if digits >= max_digits then Error (`Frame (Malformed_length "length field too long"))
        else read_len ((acc * 10) + (Char.code c - Char.code '0')) (digits + 1)
    | c -> Error (`Frame (Malformed_length (Printf.sprintf "unexpected %C in length" c)))
  in
  match read_len 0 0 with
  | Error _ as e -> e
  | Ok len ->
      if len > max_frame then Error (`Frame (Oversized len))
      else begin
        match really_input_string ic len with
        | exception End_of_file -> Error `Eof
        | payload -> (
            match input_char ic with
            | exception End_of_file -> Error `Eof
            | '\n' -> Ok payload
            | _ -> Error (`Frame Missing_terminator))
      end

let output oc payload =
  output_string oc (encode payload);
  flush oc
