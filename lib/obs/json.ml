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

(* %.17g is the shortest format that round-trips every double; integral
   values still print without an exponent ("42" stays "42").  Below 1e15
   an integral double is an exact [int], so [string_of_int] prints what
   "%.0f" would, except that "%.0f" keeps the sign of -0. *)
let num_to_string f =
  if not (Float.is_finite f) then invalid_arg "Json: non-finite number";
  if Float.is_integer f && Float.abs f < 1e15 then
    if f = 0. && Float.sign_bit f then "-0" else string_of_int (int_of_float f)
  else format_float "%.17g" f

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
