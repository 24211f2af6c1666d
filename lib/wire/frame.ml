(* Record framing, two ways:

   - binary: 0xB1 magic, version/kind tag byte, u32 LE payload length,
     payload bytes, u32 LE CRC32 of the payload.  Self-delimiting,
     newline-safe, torn-tail detectable.  WAL records, binary traces and
     binary serve frames all use it.
   - [Line]: the serve plane's "%d %s\n" length-prefixed text frame.
     This module only writes it; the serve decoder reads it.

   The magic byte 0xB1 is not printable ASCII, so a record's first byte
   tells binary from text: the serve decoder sniffs it against [Line]
   frames.  The WAL and traces are binary only and treat any other first
   byte as corruption. *)

let magic = '\xB1'
let is_binary c = Char.equal c magic

(* magic + tag + u32 length before the payload, u32 crc after. *)
let header_bytes = 6
let trailer_bytes = 4
let overhead = header_bytes + trailer_bytes

let add b ~tag payload =
  if tag < 0 || tag > 0xff then invalid_arg "Frame.add: tag must fit one byte";
  Buffer.add_char b magic;
  Binio.add_u8 b tag;
  Binio.add_u32 b (String.length payload);
  Buffer.add_string b payload;
  Buffer.add_int32_le b (Crc32.digest payload)

(* Write the header and the CRC trailer of a frame around the [len]
   payload bytes already at [b.[pos + header_bytes]]: a record body put
   in place once is framed without another copy. *)
let seal b ~pos ~tag ~len =
  if tag < 0 || tag > 0xff then invalid_arg "Frame.seal: tag must fit one byte";
  Bytes.set b pos magic;
  Bytes.set_uint8 b (pos + 1) tag;
  Bytes.set_int32_le b (pos + 2) (Int32.of_int len);
  (* read-only view: the CRC is computed before the trailer is written *)
  let crc = Crc32.sub (Bytes.unsafe_to_string b) ~pos:(pos + header_bytes) ~len in
  Bytes.set_int32_le b (pos + header_bytes + len) crc

(* Decode one binary frame at [pos] into (tag, payload).  [max] bounds
   the accepted payload length so a corrupted length field on a live
   socket is an error instead of an unbounded wait for more input. *)
let decode ?(max = Stdlib.max_int) s ~pos : (int * string) Codec.decoded =
  let len = String.length s in
  if pos >= len then Incomplete
  else if not (is_binary s.[pos]) then Corrupt "bad magic byte"
  else if pos + header_bytes > len then Incomplete
  else begin
    let tag = Binio.get_u8 s (pos + 1) in
    let plen = Binio.get_u32 s (pos + 2) in
    if plen > max then Corrupt (Printf.sprintf "frame length %d exceeds limit %d" plen max)
    else if pos + header_bytes + plen + trailer_bytes > len then Incomplete
    else begin
      let crc = String.get_int32_le s (pos + header_bytes + plen) in
      if not (Int32.equal crc (Crc32.sub s ~pos:(pos + header_bytes) ~len:plen)) then
        Corrupt "crc mismatch"
      else
        Value
          ( (tag, String.sub s (pos + header_bytes) plen),
            pos + header_bytes + plen + trailer_bytes )
    end
  end

(* "%d %s\n": decimal payload length, space, payload, newline. *)
module Line = struct
  let encode b payload =
    Binio.add_decimal b (String.length payload);
    Buffer.add_char b ' ';
    Buffer.add_string b payload;
    Buffer.add_char b '\n'

  (* [encode] of the payload held in [payload], copied once. *)
  let add_buffer b payload =
    Binio.add_decimal b (Buffer.length payload);
    Buffer.add_char b ' ';
    Buffer.add_buffer b payload;
    Buffer.add_char b '\n'
end
