type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

module Binio = Gridbw_wire.Binio

(* The C primitive behind [Printf]'s %g: calling it directly skips the
   format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* 10^k for k <= 22, each exact: 5^22 < 2^53. *)
let pow10 = Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* The decimal exponent e of "%.17g" for a finite [a] > 0 with
   1e-6 <= a < 1e17: the one for which N = a·10^k, k = 16 - e, rounded
   half to even, lies in [10^16, 10^17).  10^k is exact because
   k <= 22, and the product a·10^k is exactly hi + lo ([Float.fma]
   gives the rounding error), so the range test is exact.  [e] starts
   from log10 and moves by one until N is in range; a [k] outside
   [0, 22] ends the search and is the caller's to refuse. *)
let rec g17_exp a e =
  let k = 16 - e in
  if k < 0 || k > 22 then e
  else begin
    let p = Array.unsafe_get pow10 k in
    let hi = a *. p in
    let lo = Float.fma a p (-.hi) in
    if hi < 1e16 || (hi = 1e16 && lo < 0.) then g17_exp a (e - 1)
    else if hi > 1e17 || (hi = 1e17 && lo >= 0.) then g17_exp a (e + 1)
    else e
  end

(* N itself, for the [e] of [g17_exp].  Once 10^16 <= N < 10^17, hi >= 2^53
   is an integer and |lo| <= 8: N's integer part and its fraction are
   both exact, so the rounding is.  It may round up to 10^17. *)
let g17_mantissa a e =
  let p = Array.unsafe_get pow10 (16 - e) in
  let hi = a *. p in
  let lo = Float.fma a p (-.hi) in
  let fl = Float.floor lo in
  let fr = lo -. fl in
  let d = int_of_float hi + int_of_float fl in
  if fr > 0.5 || (fr = 0.5 && d land 1 = 1) then d + 1 else d

let zeros = "0000000000000000"

(* Append what "%.17g" prints for a finite [f] <> 0, without the C
   printf when 1e-6 <= |f| < 1e17.  %g takes style f when -4 <= e < 17
   and style e otherwise; either way the fraction loses its trailing
   zeros, and the point goes too when nothing is left.  The 17 digits go
   to a small scratch, and from there to [b] in at most three pieces. *)
let add_g17 b f =
  let a = Float.abs f in
  let e =
    if a >= 1e-6 && a < 1e17 then g17_exp a (int_of_float (Float.floor (Float.log10 a))) else 99
  in
  let d = if e >= -6 && e <= 16 then g17_mantissa a e else 0 in
  (* a mantissa that rounded up to 10^17 is 10^16 at the next exponent *)
  let carry = d = 100_000_000_000_000_000 in
  let e = if carry then e + 1 else e in
  if d = 0 || e >= 17 then Buffer.add_string b (format_float "%.17g" f)
  else begin
    let ds = Bytes.create 17 in
    ignore (Binio.put_digits ds 17 (if carry then 10_000_000_000_000_000 else d));
    (* ds.[m - 1] is the last significant digit; ds.[0] is not '0' *)
    let m = ref 17 in
    while Bytes.unsafe_get ds (!m - 1) = '0' do
      decr m
    done;
    let m = !m in
    if f < 0. then Buffer.add_char b '-';
    if e >= 0 then
      if m <= e + 1 then begin
        Buffer.add_subbytes b ds 0 m;
        Buffer.add_substring b zeros 0 (e + 1 - m)
      end
      else begin
        Buffer.add_subbytes b ds 0 (e + 1);
        Buffer.add_char b '.';
        Buffer.add_subbytes b ds (e + 1) (m - e - 1)
      end
    else if e >= -4 then begin
      (* 0.<-e-1 zeros><digits> *)
      Buffer.add_string b "0.";
      Buffer.add_substring b zeros 0 (-e - 1);
      Buffer.add_subbytes b ds 0 m
    end
    else begin
      (* <d>[.<digits>]e-0<-e>, e being -5 or -6 here *)
      Buffer.add_char b (Bytes.unsafe_get ds 0);
      if m > 1 then begin
        Buffer.add_char b '.';
        Buffer.add_subbytes b ds 1 (m - 1)
      end;
      Buffer.add_string b "e-0";
      Buffer.add_char b (Char.unsafe_chr (48 - e))
    end
  end

(* %.17g is the shortest format that round-trips every double; integral
   values still print without an exponent ("42" stays "42").  Below 1e15
   an integral double is an exact [int], so its decimal digits are what
   "%.0f" would print, except that "%.0f" keeps the sign of -0.  Other
   values in [add_g17]'s range skip the C printf. *)
let add_num b f =
  if not (Float.is_finite f) then invalid_arg "Json: non-finite number";
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. && Float.sign_bit f then Buffer.add_string b "-0"
    else Binio.add_decimal b (int_of_float f)
  else add_g17 b f

let num_to_string f =
  let b = Buffer.create 24 in
  add_num b f;
  Buffer.contents b

(* The first byte of [s] from [i] on that needs an escape, or its length. *)
let rec plain_until s i =
  if i < String.length s then
    match String.unsafe_get s i with
    | '"' | '\\' -> i
    | c when Char.code c < 0x20 -> i
    | _ -> plain_until s (i + 1)
  else i

let escape buf s =
  Buffer.add_char buf '"';
  let plain = plain_until s 0 in
  Buffer.add_substring buf s 0 plain;
  for i = plain to String.length s - 1 do
    match String.unsafe_get s i with
    | '"' -> Buffer.add_string buf "\\\""
    | '\\' -> Buffer.add_string buf "\\\\"
    | '\n' -> Buffer.add_string buf "\\n"
    | '\t' -> Buffer.add_string buf "\\t"
    | '\r' -> Buffer.add_string buf "\\r"
    | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
    | c -> Buffer.add_char buf c
  done;
  Buffer.add_char buf '"'

let to_string v =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> add_num buf f
    | Str s -> escape buf s
    | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          xs;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, x) ->
            if i > 0 then Buffer.add_char buf ',';
            escape buf k;
            Buffer.add_char buf ':';
            go x)
          fields;
        Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

exception Bad of string

let[@inline] is_num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

(* The parser's cursor.  Error messages name the byte offset where
   parsing stopped; they reach serve clients inside [bad-json] replies,
   so their wording and offsets are part of the protocol. *)
type cursor = { s : string; n : int; mutable pos : int }

let fail c msg = raise (Bad (Printf.sprintf "%s at %d" msg c.pos))

(* The byte under the cursor, '\000' at the end of input.  Only used
   where a NUL byte and the end of input take the same branch. *)
let cur c = if c.pos < c.n then String.unsafe_get c.s c.pos else '\000'

let rec skip_ws c =
  match cur c with
  | ' ' | '\t' | '\n' | '\r' ->
      c.pos <- c.pos + 1;
      skip_ws c
  | _ -> ()

let expect c ch =
  if cur c = ch then c.pos <- c.pos + 1 else fail c (Printf.sprintf "expected '%c'" ch)

let literal c word v =
  let m = String.length word in
  if c.pos + m <= c.n && String.sub c.s c.pos m = word then begin
    c.pos <- c.pos + m;
    v
  end
  else fail c ("expected " ^ word)

(* Past the first backslash: decode escapes into a buffer that already
   holds the plain prefix [start, c.pos). *)
let parse_escaped c start =
  let s = c.s in
  let buf = Buffer.create (c.pos - start + 16) in
  Buffer.add_substring buf s start (c.pos - start);
  let rec go () =
    if c.pos >= c.n then fail c "unterminated string";
    let ch = String.unsafe_get s c.pos in
    c.pos <- c.pos + 1;
    match ch with
    | '"' -> ()
    | '\\' ->
        let esc ch =
          Buffer.add_char buf ch;
          c.pos <- c.pos + 1
        in
        (match cur c with
        | '"' -> esc '"'
        | '\\' -> esc '\\'
        | '/' -> esc '/'
        | 'n' -> esc '\n'
        | 't' -> esc '\t'
        | 'r' -> esc '\r'
        | 'b' -> esc '\b'
        | 'f' -> esc '\012'
        | 'u' ->
            c.pos <- c.pos + 1;
            if c.pos + 4 > c.n then fail c "bad \\u escape";
            let code = int_of_string ("0x" ^ String.sub s c.pos 4) in
            c.pos <- c.pos + 4;
            (* Trace strings are ASCII; encode BMP code points as UTF-8. *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
        | _ -> fail c "bad escape");
        go ()
    | ch ->
        Buffer.add_char buf ch;
        go ()
  in
  go ();
  Buffer.contents buf

(* An escape-free string is one [String.sub]. *)
let parse_string c =
  expect c '"';
  let s = c.s and start = c.pos in
  let rec scan i =
    if i >= c.n then begin
      c.pos <- c.n;
      fail c "unterminated string"
    end
    else
      match String.unsafe_get s i with
      | '"' ->
          c.pos <- i + 1;
          String.sub s start (i - start)
      | '\\' ->
          c.pos <- i;
          parse_escaped c start
      | _ -> scan (i + 1)
  in
  scan start

(* --- numbers --- *)

(* The generic reader: the longest run of number characters at the
   cursor, converted by [float_of_string].  It defines what a number is
   and where a malformed one is reported; [parse_number_into] hands it
   every literal it does not convert itself. *)
let parse_number_generic c =
  let start = c.pos in
  while is_num_char (cur c) do
    c.pos <- c.pos + 1
  done;
  if c.pos = start then fail c "expected number";
  match float_of_string_opt (String.sub c.s start (c.pos - start)) with
  | Some f -> f
  | None -> fail c "malformed number"

(* [w]·10^-k for an integer 2^53 <= w < 10^18 and 1 <= k <= 22,
   correctly rounded, or nan when that cannot be certified cheaply.
   The candidate r is the double-double quotient (wh + wl)/10^k, with
   w = wh + wl exactly.  It is the correct rounding when
   |w - r·10^k| < g/2·10^k, g being the smaller of the gaps to r's
   neighbours.  r·10^k = hi + lo exactly ([Float.fma]), hi is an integer
   (it is near w >= 2^53), so w - hi is exact in [int] and the residual
   d = (w - hi) - lo carries one rounding, a relative 2^-53: a margin of
   2^-50 makes the test exact.  A residual inside the margin is near a
   halfway point, and such a literal goes to [float_of_string]. *)
let[@inline] div_pow10 w k =
  let p = Array.unsafe_get pow10 k in
  let wh = float_of_int w in
  let wl = float_of_int (w - int_of_float wh) in
  let q = wh /. p in
  let r = q +. ((Float.fma (-.q) p wh +. wl) /. p) in
  let hi = r *. p in
  let lo = Float.fma r p (-.hi) in
  let d = float_of_int (w - int_of_float hi) -. lo in
  (* r is a positive normal double: its gap above is 2^(exponent - 52),
     the one below half that when r is a power of two *)
  let bits = Int64.bits_of_float r in
  let up = Int64.float_of_bits (Int64.logand bits 0x7FF0000000000000L) *. 0x1p-52 in
  let g = if Int64.logand bits 0xFFFFFFFFFFFFFL = 0L then 0.5 *. up else up in
  if Float.abs d < 0.5 *. g *. p *. (1. -. 0x1p-50) then r else Float.nan

let[@inline] is_digit = function '0' .. '9' -> true | _ -> false

(* The number literal at the cursor, as [float_of_string] reads it, with
   the common spellings converted in place.  One pass reads
   -?digits[.digits][(e|E)[+-]digits] into a significand [w] and a
   decimal exponent [e10]: digits go into [w] while it is below 10^17,
   so it holds up to 18 of them, and a later integer digit adds one to
   [e10] instead (a nonzero one, lost, makes the literal inexact).
   Then, for an exact literal,
   - a plain integer of at most 15 digits is [w], exactly;
   - [w] = 0 is a zero of the literal's sign;
   - [w] < 2^53 and |e10| <= 22 is Clinger's fast path: [w] and 10^|e10|
     are exact doubles, so one multiplication or division rounds once,
     correctly;
   - [e10] = 0 is one exact integer conversion;
   - 2^53 <= [w] and -22 <= [e10] < 0 (16 to 18 digits with a
     fraction, what "%.17g" prints) is [div_pow10]'s certified quotient.
   Anything else (an inexact literal, a far exponent, a positive exponent
   on a long significand, an uncertified quotient, a leading '+', a
   missing digit, a number character right after the literal) goes to
   [parse_number_generic], which also reports every malformed literal,
   so error messages and offsets do not depend on this reader.  The
   double goes to [dst.(k)], unboxed. *)
let parse_number_into c (dst : float array) k =
  let s = c.s and n = c.n in
  let i = ref c.pos in
  let neg = !i < n && String.unsafe_get s !i = '-' in
  if neg then incr i;
  let w = ref 0 and e10 = ref 0 and exact = ref true in
  let first = !i in
  while !i < n && is_digit (String.unsafe_get s !i) do
    let v = Char.code (String.unsafe_get s !i) - 48 in
    if !w < 100_000_000_000_000_000 then w := (!w * 10) + v
    else begin
      incr e10;
      if v <> 0 then exact := false
    end;
    incr i
  done;
  let digits = ref (!i - first) in
  if !digits > 0 && !digits <= 15 && not (!i < n && is_num_char (String.unsafe_get s !i)) then begin
    (* a plain integer below 10^15: exact *)
    c.pos <- !i;
    dst.(k) <- (if neg then -.float_of_int !w else float_of_int !w)
  end
  else begin
    if !i < n && String.unsafe_get s !i = '.' then begin
      incr i;
      let from = !i in
      while !i < n && is_digit (String.unsafe_get s !i) do
        let v = Char.code (String.unsafe_get s !i) - 48 in
        if !w < 100_000_000_000_000_000 then begin
          w := (!w * 10) + v;
          decr e10
        end
        else if v <> 0 then exact := false;
        incr i
      done;
      digits := !digits + (!i - from)
    end;
    let ok = ref (!digits > 0) in
    if !ok && !i < n && (String.unsafe_get s !i = 'e' || String.unsafe_get s !i = 'E') then begin
      incr i;
      let eneg = !i < n && String.unsafe_get s !i = '-' in
      if !i < n && (eneg || String.unsafe_get s !i = '+') then incr i;
      let from = !i and ex = ref 0 in
      while !i < n && is_digit (String.unsafe_get s !i) do
        if !ex < 100_000 then ex := (!ex * 10) + (Char.code (String.unsafe_get s !i) - 48);
        incr i
      done;
      if !i = from then ok := false;
      e10 := if eneg then !e10 - !ex else !e10 + !ex
    end;
    let w = !w and e10 = !e10 in
    let v =
      if (not !ok) || (!i < n && is_num_char (String.unsafe_get s !i)) then Float.nan
      else if w = 0 then 0.
      else if (not !exact) || e10 < -22 || e10 > 22 then Float.nan
      else if w < 0x20000000000000 then
        if e10 >= 0 then float_of_int w *. Array.unsafe_get pow10 e10
        else float_of_int w /. Array.unsafe_get pow10 (-e10)
      else if e10 = 0 then float_of_int w
      else if e10 < 0 then div_pow10 w (-e10)
      else Float.nan
    in
    if Float.is_nan v then dst.(k) <- parse_number_generic c
    else begin
      c.pos <- !i;
      dst.(k) <- (if neg then -.v else v)
    end
  end

(* The double [float_of_string] returns for the literal at the cursor,
   bit for bit; raises [Bad] on a malformed literal. *)
let parse_number c =
  let dst = [| 0. |] in
  parse_number_into c dst 0;
  dst.(0)

let rec parse_value c =
  skip_ws c;
  if c.pos >= c.n then fail c "unexpected end of input";
  match String.unsafe_get c.s c.pos with
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if cur c = '}' then begin
        c.pos <- c.pos + 1;
        Obj []
      end
      else Obj (parse_fields c [])
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if cur c = ']' then begin
        c.pos <- c.pos + 1;
        List []
      end
      else List (parse_items c [])
  | '"' -> Str (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | _ -> Num (parse_number c)

and parse_fields c acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  skip_ws c;
  match cur c with
  | ',' ->
      c.pos <- c.pos + 1;
      parse_fields c ((k, v) :: acc)
  | '}' ->
      c.pos <- c.pos + 1;
      List.rev ((k, v) :: acc)
  | _ -> fail c "expected ',' or '}'"

and parse_items c acc =
  let v = parse_value c in
  skip_ws c;
  match cur c with
  | ',' ->
      c.pos <- c.pos + 1;
      parse_items c (v :: acc)
  | ']' ->
      c.pos <- c.pos + 1;
      List.rev (v :: acc)
  | _ -> fail c "expected ',' or ']'"

let parse s =
  let c = { s; n = String.length s; pos = 0 } in
  match
    let v = parse_value c in
    skip_ws c;
    if c.pos <> c.n then fail c "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg
  | exception Failure msg -> Error msg

let member key = function
  | Obj fields ->
      let rec find = function
        | [] -> None
        | (k, v) :: rest -> if String.equal k key then Some v else find rest
      in
      find fields
  | _ -> None

let to_float = function Num f -> Some f | _ -> None

let to_int = function
  | Num f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
