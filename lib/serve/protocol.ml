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

let obj re fields = Json.to_string (Json.Obj (("v", int version) :: ("re", str re) :: fields))
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

let window fields = function
  | bw, sigma, tau -> fields @ [ ("bw", num bw); ("sigma", num sigma); ("tau", num tau) ]

let encode_response = function
  | Admitted { id; bw; sigma; tau } -> obj "admitted" (window [ ("id", int id) ] (bw, sigma, tau))
  | Rejected { id; reason } -> obj "rejected" [ ("id", int id); ("reason", str reason) ]
  | Status { id; disposition } ->
      let fields =
        match disposition with
        | Unknown -> [ ("state", str "unknown") ]
        | Active { bw; sigma; tau } -> window [ ("state", str "active") ] (bw, sigma, tau)
        | Done { bw; sigma; tau } -> window [ ("state", str "done") ] (bw, sigma, tau)
        | Refused { reason } -> [ ("state", str "rejected"); ("reason", str reason) ]
        | Cancelled -> [ ("state", str "cancelled") ]
      in
      obj "status" (("id", int id) :: fields)
  | Cancel_ok { id } -> obj "cancelled" [ ("id", int id) ]
  | Cancel_failed { id; reason } -> obj "cancel-failed" [ ("id", int id); ("reason", str reason) ]
  | Stats_text text -> obj "stats" [ ("prometheus", str text) ]
  | Goodbye { records } -> obj "goodbye" [ ("records", int records) ]
  | Error { code; message } -> obj "error" [ ("code", str (code_name code)); ("message", str message) ]

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

let decode_request payload =
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
