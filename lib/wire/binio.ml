(* Little-endian primitive readers/writers shared by the binary codecs,
   and the decimal integer writer of the text ones.
   Floats travel as their IEEE 754 bit patterns ([Int64.bits_of_float]),
   so every value round-trips bit-exactly — including -0., infinities and
   NaN payloads — which is what keeps binary and JSONL decision streams
   comparable without a tolerance. *)

let add_u8 b v = Buffer.add_char b (Char.unsafe_chr (v land 0xff))
let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_i64 b v = Buffer.add_int64_le b (Int64.of_int v)
let add_f64 b v = Buffer.add_int64_le b (Int64.bits_of_float v)

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

(* "00", "01", ... "99": two decimal digits a lookup. *)
let digit_pairs =
  "00010203040506070809101112131415161718192021222324\
   25262728293031323334353637383940414243444546474849\
   50515253545556575859606162636465666768697071727374\
   75767778798081828384858687888990919293949596979899"

(* Write the decimal digits of [v] >= 0 into [dst], the last one at
   [stop - 1], two at a time from the low end; return where the first
   one went. *)
let rec put_digits dst stop v =
  if v < 10 then begin
    Bytes.unsafe_set dst (stop - 1) (Char.unsafe_chr (48 + v));
    stop - 1
  end
  else begin
    let q = v / 100 in
    let r = 2 * (v - (q * 100)) in
    Bytes.unsafe_set dst (stop - 1) (String.unsafe_get digit_pairs (r + 1));
    Bytes.unsafe_set dst (stop - 2) (String.unsafe_get digit_pairs r);
    if q = 0 then stop - 2 else put_digits dst (stop - 2) q
  end

(* The digits of [v] >= 10, most significant first, two a lookup. *)
let rec add_pairs b v =
  if v >= 100 then begin
    let q = v / 100 in
    if q < 10 then Buffer.add_char b (Char.unsafe_chr (48 + q)) else add_pairs b q
  end;
  Buffer.add_substring b digit_pairs (2 * (v mod 100)) 2

(* What [string_of_int v] prints, written into [b] without the C printf
   and without allocating. *)
let add_decimal b v =
  if v >= 0 && v < 10 then Buffer.add_char b (Char.unsafe_chr (48 + v))
  else if v >= 0 then add_pairs b v
  else if v <> min_int then begin
    Buffer.add_char b '-';
    if v > -10 then Buffer.add_char b (Char.unsafe_chr (48 - v)) else add_pairs b (-v)
  end
  else Buffer.add_string b (string_of_int v)

let get_u8 s pos = Char.code (String.get s pos)
let get_u32 s pos = Int32.to_int (String.get_int32_le s pos) land 0xFFFFFFFF
let get_i64 s pos = Int64.to_int (String.get_int64_le s pos)
let get_f64 s pos = Int64.float_of_bits (String.get_int64_le s pos)
