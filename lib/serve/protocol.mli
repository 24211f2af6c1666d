(** Versioned wire protocol of the admission daemon.

    Requests and responses are single JSON objects (the {!Gridbw_obs.Json}
    codec), one per {!Frame}.  Every object carries ["v"], the protocol
    version; a daemon refuses versions it does not speak with a typed
    error instead of guessing.  Five verbs: [admit] (decide a request —
    the response is sent only after the decision is durable), [query]
    (look up a decision), [cancel] (preempt a still-active admission),
    [stats] (Prometheus text dump of the daemon's registry), [shutdown]
    (graceful drain).

    Responses on one connection are sent in request order, so clients may
    pipeline.  Decoding is total: malformed input yields {!decode_error},
    never an exception. *)

val version : int

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

(** What the daemon knows about a request id. *)
type disposition =
  | Unknown
  | Active of { bw : float; sigma : float; tau : float }  (** admitted, still transmitting *)
  | Done of { bw : float; sigma : float; tau : float }  (** admitted, transfer finished *)
  | Refused of { reason : string }
  | Cancelled

type error_code = Bad_frame | Bad_json | Bad_version | Bad_request

type response =
  | Admitted of { id : int; bw : float; sigma : float; tau : float }
  | Rejected of { id : int; reason : string }
  | Status of { id : int; disposition : disposition }
  | Cancel_ok of { id : int }
  | Cancel_failed of { id : int; reason : string }
  | Stats_text of string  (** Prometheus text exposition *)
  | Goodbye of { records : int }  (** shutdown acknowledged; journal record count *)
  | Error of { code : error_code; message : string }

type decode_error =
  | Bad_json_e of string  (** the payload is not a JSON object *)
  | Bad_version_e of int  (** a version this implementation does not speak *)
  | Bad_request_e of string
      (** unknown verb, missing or ill-typed field; an integer field
          beyond 2^53 in magnitude is ill-typed *)

val describe_decode_error : decode_error -> string
val error_of_decode : decode_error -> response
(** The error response a daemon sends back for an undecodable request. *)

val code_name : error_code -> string

val encode_request : request -> string
(** The JSON payload (frame it with {!Frame.encode} to put on the wire). *)

val decode_request : string -> (request, decode_error) result
(** An admit is read in one scan of the payload, straight into its
    fields.  Any payload the scan does not accept whole (another verb,
    an unknown or repeated key, an ill-typed value, an escape in a key,
    trailing bytes) goes to {!decode_request_tree}, so the two agree on
    every input, error messages included. *)

val decode_request_tree : string -> (request, decode_error) result
(** The generic decoder: parse a [Json.t] tree, then read its fields.
    {!decode_request}'s fallback, and the reference it is tested
    against. *)

val encode_response : response -> string
(** Written field by field in one buffer; the bytes are [Json.to_string]
    of the response's object form (keys ["v"], ["re"], then the fields
    in constructor order). *)

val add_response : Buffer.t -> response -> unit
(** Append {!encode_response}'s bytes to a buffer. *)

val decode_response : string -> (response, decode_error) result

val pp_request : Format.formatter -> request -> unit
val pp_response : Format.formatter -> response -> unit
