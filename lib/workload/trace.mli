(** CSV persistence of workload traces.

    Format (one line per request, header included):
    [id,ingress,egress,volume_mb,ts_s,tf_s,max_rate_mbps].  Floats are
    printed with enough digits to round-trip exactly ([%.17g]). *)

val to_string : Gridbw_request.Request.t list -> string
val to_file : string -> Gridbw_request.Request.t list -> unit

val of_string : string -> Gridbw_request.Request.t list
(** The header line is optional and blank lines are skipped.  Raises
    [Failure] with a line-number message on a malformed line, and with
    ["Trace: line N: id X repeats line M"] when two lines share an id. *)

val of_file : string -> Gridbw_request.Request.t list
(** {!of_string} on the file's contents. *)
