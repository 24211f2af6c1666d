(* Wire codec for the admission daemon.  See protocol.mli. *)

module Json = Gridbw_obs.Json

let version = 1

type request =
  | Admit of {
      id : int;
      ingress : int;
      egress : int;
      volume : float;
      ts : float;
      tf : float;
      max_rate : float;
    }
  | Query of { id : int }
  | Cancel of { id : int }
  | Stats
  | Shutdown

type disposition =
  | Unknown
  | Active of { bw : float; sigma : float; tau : float }
  | Done of { bw : float; sigma : float; tau : float }
  | Refused of { reason : string }
  | Cancelled

type error_code = Bad_frame | Bad_json | Bad_version | Bad_request

type response =
  | Admitted of { id : int; bw : float; sigma : float; tau : float }
  | Rejected of { id : int; reason : string }
  | Status of { id : int; disposition : disposition }
  | Cancel_ok of { id : int }
  | Cancel_failed of { id : int; reason : string }
  | Stats_text of string
  | Goodbye of { records : int }
  | Error of { code : error_code; message : string }

type decode_error = Bad_json_e of string | Bad_version_e of int | Bad_request_e of string

let describe_decode_error = function
  | Bad_json_e msg -> "bad json: " ^ msg
  | Bad_version_e v -> Printf.sprintf "unsupported protocol version %d (speaking %d)" v version
  | Bad_request_e msg -> "bad request: " ^ msg

let code_name = function
  | Bad_frame -> "bad-frame"
  | Bad_json -> "bad-json"
  | Bad_version -> "bad-version"
  | Bad_request -> "bad-request"

let code_of_name = function
  | "bad-frame" -> Some Bad_frame
  | "bad-json" -> Some Bad_json
  | "bad-version" -> Some Bad_version
  | "bad-request" -> Some Bad_request
  | _ -> None

let error_of_decode e =
  let code =
    match e with
    | Bad_json_e _ -> Bad_json
    | Bad_version_e _ -> Bad_version
    | Bad_request_e _ -> Bad_request
  in
  Error { code; message = describe_decode_error e }

(* --- encoding --- *)

let num f = Json.Num f
let int i = Json.Num (float_of_int i)
let str s = Json.Str s

let req_obj op fields = Json.to_string (Json.Obj (("v", int version) :: ("op", str op) :: fields))

let encode_request = function
  | Admit { id; ingress; egress; volume; ts; tf; max_rate } ->
      req_obj "admit"
        [
          ("id", int id);
          ("in", int ingress);
          ("out", int egress);
          ("vol", num volume);
          ("ts", num ts);
          ("tf", num tf);
          ("max", num max_rate);
        ]
  | Query { id } -> req_obj "query" [ ("id", int id) ]
  | Cancel { id } -> req_obj "cancel" [ ("id", int id) ]
  | Stats -> req_obj "stats" []
  | Shutdown -> req_obj "shutdown" []

(* Replies are written straight into one buffer, key by key, in the
   order the JSON object form lists them; numbers and strings go through
   [Json]'s own printers, so the bytes are the ones [Json.to_string]
   would write for that object.  Each reply kind's fixed head,
   {"v":1,"re":"<kind>", is built once. *)
let head re = Printf.sprintf "{\"v\":%s,\"re\":\"%s\"" (Json.num_to_string (float_of_int version)) re

let h_admitted = head "admitted"
let h_rejected = head "rejected"
let h_status = head "status"
let h_cancelled = head "cancelled"
let h_cancel_failed = head "cancel-failed"
let h_stats = head "stats"
let h_goodbye = head "goodbye"
let h_error = head "error"

let add_num b key f =
  Buffer.add_string b key;
  Json.add_num b f

let add_int b key i = add_num b key (float_of_int i)

let add_str b key s =
  Buffer.add_string b key;
  Json.escape b s

let add_window b bw sigma tau =
  add_num b ",\"bw\":" bw;
  add_num b ",\"sigma\":" sigma;
  add_num b ",\"tau\":" tau

let add_response b r =
  (match r with
  | Admitted { id; bw; sigma; tau } ->
      Buffer.add_string b h_admitted;
      add_int b ",\"id\":" id;
      add_window b bw sigma tau
  | Rejected { id; reason } ->
      Buffer.add_string b h_rejected;
      add_int b ",\"id\":" id;
      add_str b ",\"reason\":" reason
  | Status { id; disposition } -> (
      Buffer.add_string b h_status;
      add_int b ",\"id\":" id;
      match disposition with
      | Unknown -> Buffer.add_string b ",\"state\":\"unknown\""
      | Active { bw; sigma; tau } ->
          Buffer.add_string b ",\"state\":\"active\"";
          add_window b bw sigma tau
      | Done { bw; sigma; tau } ->
          Buffer.add_string b ",\"state\":\"done\"";
          add_window b bw sigma tau
      | Refused { reason } ->
          Buffer.add_string b ",\"state\":\"rejected\"";
          add_str b ",\"reason\":" reason
      | Cancelled -> Buffer.add_string b ",\"state\":\"cancelled\"")
  | Cancel_ok { id } ->
      Buffer.add_string b h_cancelled;
      add_int b ",\"id\":" id
  | Cancel_failed { id; reason } ->
      Buffer.add_string b h_cancel_failed;
      add_int b ",\"id\":" id;
      add_str b ",\"reason\":" reason
  | Stats_text text ->
      Buffer.add_string b h_stats;
      add_str b ",\"prometheus\":" text
  | Goodbye { records } ->
      Buffer.add_string b h_goodbye;
      add_int b ",\"records\":" records
  | Error { code; message } ->
      Buffer.add_string b h_error;
      add_str b ",\"code\":" (code_name code);
      add_str b ",\"message\":" message);
  Buffer.add_char b '}'

let encode_response r =
  let b = Buffer.create 128 in
  add_response b r;
  Buffer.contents b

(* --- decoding --- *)

let field name conv j what =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Result.Error (Bad_request_e (Printf.sprintf "missing or ill-typed %S field" what))

(* Beyond 2^53 doubles skip integers, so distinct literals would decode
   to the same [int] ({"id":1e30} and 1e31 both to 0); such a field is
   ill-typed.  The bound sits here, where outside input arrives: journal
   and trace decoders keep reading every integral value older stores
   wrote. *)
let exact_int j =
  match Json.to_float j with
  | Some f when Float.abs f < 0x1p53 -> Json.to_int j
  | _ -> None

let int_field name j = field name exact_int j name
let float_field name j = field name Json.to_float j name
let str_field name j = field name Json.to_str j name

let ( let* ) = Result.bind

let with_versioned payload k =
  match Json.parse payload with
  | Result.Error msg -> Result.Error (Bad_json_e msg)
  | Ok j -> (
      match j with
      | Json.Obj _ -> (
          match Option.bind (Json.member "v" j) exact_int with
          | None -> Result.Error (Bad_request_e "missing or ill-typed \"v\" field")
          | Some v when v <> version -> Result.Error (Bad_version_e v)
          | Some _ -> k j)
      | _ -> Result.Error (Bad_json_e "payload is not a JSON object"))

let decode_request_tree payload =
  with_versioned payload (fun j ->
      let* op = str_field "op" j in
      match op with
      | "admit" ->
          let* id = int_field "id" j in
          let* ingress = int_field "in" j in
          let* egress = int_field "out" j in
          let* volume = float_field "vol" j in
          let* ts = float_field "ts" j in
          let* tf = float_field "tf" j in
          let* max_rate = float_field "max" j in
          Ok (Admit { id; ingress; egress; volume; ts; tf; max_rate })
      | "query" ->
          let* id = int_field "id" j in
          Ok (Query { id })
      | "cancel" ->
          let* id = int_field "id" j in
          Ok (Cancel { id })
      | "stats" -> Ok Stats
      | "shutdown" -> Ok Shutdown
      | other -> Result.Error (Bad_request_e (Printf.sprintf "unknown verb %S" other)))

(* The admit scan: one pass over the payload that reads the nine admit
   keys, in any order, straight into fields — no tree, no key strings.
   It accepts exactly one flat object holding each admit key once, with
   "op" spelled "admit" without escapes, "v" = 1, integral ids below
   2^53 and numbers where numbers belong.  Anything else (another verb,
   an unknown or repeated key, a string for a number, an escape in a
   key, trailing bytes, any error) is [None]: the tree decoder then
   answers, so every error reply comes from one place.  Numbers go
   through [Json.parse_number_into], the tree parser's own reader, so
   both paths read the same doubles; they land unboxed in one float
   array, a slot per key. *)

(* Bit of each admit key in the [seen] mask, and its slot in the number
   array; -1 for any other key: v op id in out vol ts tf max.  Slot 1
   ("op") holds no number. *)
let key_bit s i len =
  let c0 = String.unsafe_get s i in
  match len with
  | 1 -> if c0 = 'v' then 0 else -1
  | 2 -> (
      match (c0, String.unsafe_get s (i + 1)) with
      | 'o', 'p' -> 1
      | 'i', 'd' -> 2
      | 'i', 'n' -> 3
      | 't', 's' -> 6
      | 't', 'f' -> 7
      | _ -> -1)
  | 3 -> (
      match (c0, String.unsafe_get s (i + 1), String.unsafe_get s (i + 2)) with
      | 'o', 'u', 't' -> 4
      | 'v', 'o', 'l' -> 5
      | 'm', 'a', 'x' -> 8
      | _ -> -1)
  | _ -> -1

let all_keys = (1 lsl 9) - 1

(* The first non-whitespace position at or after [i]. *)
let rec skip_ws s n i =
  if i < n then
    match String.unsafe_get s i with ' ' | '\t' | '\n' | '\r' -> skip_ws s n (i + 1) | _ -> i
  else i

(* Whether [s] holds [word] from [i] on, from its [k]th byte. *)
let rec same s i word k =
  k = String.length word
  || (String.unsafe_get s (i + k) = String.unsafe_get word k && same s i word (k + 1))

let has_word s n i word = i + String.length word <= n && same s i word 0

(* Slot [k] holds an exact integer: the tree decoder's [exact_int]. *)
let exact_at (nums : float array) k =
  let f = Array.unsafe_get nums k in
  Float.abs f < 0x1p53 && Float.is_integer f

let int_at (nums : float array) k = int_of_float (Array.unsafe_get nums k)

let scan_admit payload =
  let s = payload and n = String.length payload in
  let c = { Json.s; n; pos = 0 } in
  let nums = [| 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0.; 0. |] in
  let i = ref (skip_ws s n 0) and ok = ref true and closed = ref false and seen = ref 0 in
  if !i < n && String.unsafe_get s !i = '{' then incr i else ok := false;
  while !ok && not !closed do
    i := skip_ws s n !i;
    (* the key: a plain quoted string naming an admit key not yet seen *)
    let bit =
      if !i >= n || String.unsafe_get s !i <> '"' then -1
      else begin
        let start = !i + 1 in
        let j = ref start in
        while !j < n && String.unsafe_get s !j <> '"' && String.unsafe_get s !j <> '\\' do
          incr j
        done;
        if !j >= n || String.unsafe_get s !j <> '"' then -1
        else begin
          i := !j + 1;
          key_bit s start (!j - start)
        end
      end
    in
    if bit < 0 || !seen land (1 lsl bit) <> 0 then ok := false
    else begin
      seen := !seen lor (1 lsl bit);
      i := skip_ws s n !i;
      if !i >= n || String.unsafe_get s !i <> ':' then ok := false
      else begin
        i := skip_ws s n (!i + 1);
        if bit = 1 then
          if has_word s n !i "\"admit\"" then i := !i + 7 else ok := false
        else if !i >= n then ok := false
        else
          match String.unsafe_get s !i with
          | '{' | '[' | '"' | 't' | 'f' | 'n' -> ok := false
          | _ -> (
              c.pos <- !i;
              match Json.parse_number_into c nums bit with
              | exception Json.Bad _ -> ok := false
              | () -> i := c.pos)
      end;
      if !ok then begin
        i := skip_ws s n !i;
        if !i < n && String.unsafe_get s !i = ',' then incr i
        else if !i < n && String.unsafe_get s !i = '}' then begin
          incr i;
          closed := true
        end
        else ok := false
      end
    end
  done;
  if
    !ok && !seen = all_keys
    && skip_ws s n !i = n
    && exact_at nums 0
    && int_at nums 0 = version
    && exact_at nums 2 && exact_at nums 3 && exact_at nums 4
  then
    Some
      (Admit
         {
           id = int_at nums 2;
           ingress = int_at nums 3;
           egress = int_at nums 4;
           volume = Array.unsafe_get nums 5;
           ts = Array.unsafe_get nums 6;
           tf = Array.unsafe_get nums 7;
           max_rate = Array.unsafe_get nums 8;
         })
  else None

let decode_request payload =
  match scan_admit payload with Some r -> Ok r | None -> decode_request_tree payload

let decode_window j =
  let* bw = float_field "bw" j in
  let* sigma = float_field "sigma" j in
  let* tau = float_field "tau" j in
  Ok (bw, sigma, tau)

let decode_response payload =
  with_versioned payload (fun j ->
      let* re = str_field "re" j in
      match re with
      | "admitted" ->
          let* id = int_field "id" j in
          let* bw, sigma, tau = decode_window j in
          Ok (Admitted { id; bw; sigma; tau })
      | "rejected" ->
          let* id = int_field "id" j in
          let* reason = str_field "reason" j in
          Ok (Rejected { id; reason })
      | "status" -> (
          let* id = int_field "id" j in
          let* state = str_field "state" j in
          match state with
          | "unknown" -> Ok (Status { id; disposition = Unknown })
          | "active" ->
              let* bw, sigma, tau = decode_window j in
              Ok (Status { id; disposition = Active { bw; sigma; tau } })
          | "done" ->
              let* bw, sigma, tau = decode_window j in
              Ok (Status { id; disposition = Done { bw; sigma; tau } })
          | "rejected" ->
              let* reason = str_field "reason" j in
              Ok (Status { id; disposition = Refused { reason } })
          | "cancelled" -> Ok (Status { id; disposition = Cancelled })
          | other -> Result.Error (Bad_request_e (Printf.sprintf "unknown status state %S" other)))
      | "cancelled" ->
          let* id = int_field "id" j in
          Ok (Cancel_ok { id })
      | "cancel-failed" ->
          let* id = int_field "id" j in
          let* reason = str_field "reason" j in
          Ok (Cancel_failed { id; reason })
      | "stats" ->
          let* text = str_field "prometheus" j in
          Ok (Stats_text text)
      | "goodbye" ->
          let* records = int_field "records" j in
          Ok (Goodbye { records })
      | "error" ->
          let* code_s = str_field "code" j in
          let* message = str_field "message" j in
          let* code =
            match code_of_name code_s with
            | Some c -> Ok c
            | None -> Result.Error (Bad_request_e (Printf.sprintf "unknown error code %S" code_s))
          in
          Ok (Error { code; message })
      | other -> Result.Error (Bad_request_e (Printf.sprintf "unknown response kind %S" other)))

(* --- printing --- *)

let pp_request ppf = function
  | Admit { id; ingress; egress; volume; ts; tf; max_rate } ->
      Format.fprintf ppf "admit[%d %d->%d vol=%g ts=%g tf=%g max=%g]" id ingress egress volume ts
        tf max_rate
  | Query { id } -> Format.fprintf ppf "query[%d]" id
  | Cancel { id } -> Format.fprintf ppf "cancel[%d]" id
  | Stats -> Format.pp_print_string ppf "stats"
  | Shutdown -> Format.pp_print_string ppf "shutdown"

let pp_response ppf = function
  | Admitted { id; bw; sigma; tau } ->
      Format.fprintf ppf "admitted[%d bw=%g sigma=%g tau=%g]" id bw sigma tau
  | Rejected { id; reason } -> Format.fprintf ppf "rejected[%d %s]" id reason
  | Status { id; _ } -> Format.fprintf ppf "status[%d]" id
  | Cancel_ok { id } -> Format.fprintf ppf "cancelled[%d]" id
  | Cancel_failed { id; reason } -> Format.fprintf ppf "cancel-failed[%d %s]" id reason
  | Stats_text _ -> Format.pp_print_string ppf "stats"
  | Goodbye { records } -> Format.fprintf ppf "goodbye[%d]" records
  | Error { code; message } -> Format.fprintf ppf "error[%s %s]" (code_name code) message
