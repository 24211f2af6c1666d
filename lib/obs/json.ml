type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* The C primitive behind [Printf]'s %g: calling it directly skips the
   format interpreter. *)
external format_float : string -> float -> string = "caml_format_float"

(* 10^k for k <= 22, each exact: 5^22 < 2^53. *)
let pow10 = Array.init 23 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* The 17 significant digits of "%.17g" for a finite [a] > 0, and its
   decimal exponent, when 1e-6 <= a < 1e17; (0, _) otherwise.  They are
   N = a·10^k rounded half to even, with k = 16 - e for the decimal
   exponent e, and 10^k is exact because k <= 22.  The product a·10^k is
   exactly hi + lo ([Float.fma] gives the rounding error), and once
   10^16 <= N < 10^17, hi >= 2^53 is an integer and |lo| <= 8: N's
   integer part and its fraction are both exact, so the rounding is.
   [e] starts from log10 and moves by one until N is in range. *)
let rec g17_digits a e =
  let k = 16 - e in
  if k < 0 || k > 22 then (0, e)
  else begin
    let p = Array.unsafe_get pow10 k in
    let hi = a *. p in
    let lo = Float.fma a p (-.hi) in
    if hi < 1e16 || (hi = 1e16 && lo < 0.) then g17_digits a (e - 1)
    else if hi > 1e17 || (hi = 1e17 && lo >= 0.) then g17_digits a (e + 1)
    else begin
      let fl = Float.floor lo in
      let fr = lo -. fl in
      let d = int_of_float hi + int_of_float fl in
      let d = if fr > 0.5 || (fr = 0.5 && d land 1 = 1) then d + 1 else d in
      if d = 100_000_000_000_000_000 then (10_000_000_000_000_000, e + 1) else (d, e)
    end
  end

(* What "%.17g" prints for a finite [f] with 1e-6 <= |f| < 1e17, without
   the C printf; "" outside that range.  %g takes style f when
   -4 <= e < 17 and style e otherwise; either way the fraction loses its
   trailing zeros, and the point goes too when nothing is left. *)
let g17 f =
  let a = Float.abs f in
  let d, e =
    if a >= 1e-6 && a < 1e17 then g17_digits a (int_of_float (Float.floor (Float.log10 a)))
    else (0, 0)
  in
  if d = 0 || e >= 17 then ""
  else begin
    let ds = Bytes.create 17 in
    let v = ref d in
    for i = 16 downto 0 do
      Bytes.unsafe_set ds i (Char.unsafe_chr (48 + (!v mod 10)));
      v := !v / 10
    done;
    (* ds.[last] is the last significant digit; ds.[0] is not '0' *)
    let last = ref 16 in
    while Bytes.unsafe_get ds !last = '0' do
      decr last
    done;
    let last = !last and sign = if f < 0. then 1 else 0 in
    if e >= 0 then begin
      let frac = if last > e then last - e else 0 in
      let b = Bytes.make (sign + e + 1 + (if frac > 0 then frac + 1 else 0)) '-' in
      Bytes.blit ds 0 b sign (e + 1);
      if frac > 0 then begin
        Bytes.unsafe_set b (sign + e + 1) '.';
        Bytes.blit ds (e + 1) b (sign + e + 2) frac
      end;
      Bytes.unsafe_to_string b
    end
    else if e >= -4 then begin
      (* 0.<-e-1 zeros><digits> *)
      let b = Bytes.make (sign + 1 - e + last + 1) '0' in
      if sign = 1 then Bytes.unsafe_set b 0 '-';
      Bytes.unsafe_set b (sign + 1) '.';
      Bytes.blit ds 0 b (sign + 1 - e) (last + 1);
      Bytes.unsafe_to_string b
    end
    else begin
      (* <d>[.<digits>]e-0<-e>, e being -5 or -6 here *)
      let frac = if last > 0 then last + 1 else 0 in
      let b = Bytes.make (sign + 1 + frac + 4) '-' in
      Bytes.unsafe_set b sign (Bytes.unsafe_get ds 0);
      if frac > 0 then begin
        Bytes.unsafe_set b (sign + 1) '.';
        Bytes.blit ds 1 b (sign + 2) last
      end;
      Bytes.blit_string "e-0" 0 b (sign + 1 + frac) 3;
      Bytes.unsafe_set b (sign + frac + 4) (Char.unsafe_chr (48 - e));
      Bytes.unsafe_to_string b
    end
  end

(* %.17g is the shortest format that round-trips every double; integral
   values still print without an exponent ("42" stays "42").  Below 1e15
   an integral double is an exact [int], so [string_of_int] prints what
   "%.0f" would, except that "%.0f" keeps the sign of -0.  Other values
   in [g17]'s range skip the C printf: ≈0.13 against ≈0.5 µs a value on
   a 2-vCPU x86-64 host. *)
let num_to_string f =
  if not (Float.is_finite f) then invalid_arg "Json: non-finite number";
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f)
  else
    match g17 f with "" -> format_float "%.17g" f | s -> s

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let to_string v =
  let buf = Buffer.create 128 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f -> Buffer.add_string buf (num_to_string f)
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

let is_num_char = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false

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

(* A plain integer literal of at most 15 digits is below 2^53, so it
   converts exactly; [float_of_string]'s correctly rounded result is the
   same double ("-0" included).  Everything else, and every error, goes
   through [float_of_string] as before. *)
let parse_number c =
  let start = c.pos in
  if cur c = '-' then c.pos <- c.pos + 1;
  let digits_from = c.pos in
  let acc = ref 0 in
  while match cur c with '0' .. '9' -> true | _ -> false do
    acc := (!acc * 10) + (Char.code (String.unsafe_get c.s c.pos) - Char.code '0');
    c.pos <- c.pos + 1
  done;
  let digits = c.pos - digits_from in
  if digits > 0 && digits <= 15 && not (is_num_char (cur c)) then
    if digits_from > start then -.float_of_int !acc else float_of_int !acc
  else begin
    while is_num_char (cur c) do
      c.pos <- c.pos + 1
    done;
    if c.pos = start then fail c "expected number";
    match float_of_string_opt (String.sub c.s start (c.pos - start)) with
    | Some f -> f
    | None -> fail c "malformed number"
  end

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
