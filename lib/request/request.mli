(** Short-lived transfer requests (paper, section 2.1).

    A request moves [volume] MB from [ingress] to [egress] within the
    transmission window [\[ts, tf\]]; the end systems cap its rate at
    [max_rate] MB/s.  The slowest feasible rate is
    [min_rate = volume / (tf - ts)]; a request is {e rigid} when
    [min_rate = max_rate] (no scheduling freedom) and {e flexible}
    otherwise. *)

type t = private {
  id : int;  (** unique within a workload; ties in heuristics break on id *)
  ingress : int;  (** index of the ingress access point *)
  egress : int;  (** index of the egress access point *)
  volume : float;  (** MB, > 0 *)
  ts : float;  (** requested start time (also the arrival time), s *)
  tf : float;  (** requested finish deadline, s; tf > ts *)
  max_rate : float;  (** host transmission limit, MB/s *)
}

val make :
  id:int -> ingress:int -> egress:int -> volume:float -> ts:float -> tf:float ->
  max_rate:float -> t
(** Validates: [volume > 0], [tf > ts], [max_rate > 0], all finite, and
    [max_rate >= min_rate] up to a relative [1e-9] slack (otherwise the
    request could never meet its own deadline).
    Raises [Invalid_argument] on violation. *)

val make_rigid :
  id:int -> ingress:int -> egress:int -> bw:float -> ts:float -> tf:float -> t
(** Rigid request transmitting at exactly [bw] for the whole window:
    [volume = bw * (tf - ts)] and [max_rate = bw]. *)

val min_rate : t -> float
(** [volume / (tf - ts)] — the rate below which the deadline is missed. *)

val min_rate_at : t -> now:float -> float option
(** Deadline-aware minimum rate when transmission starts at [now] instead
    of [ts]: [volume / (tf - now)].  [None] if [now >= tf] (window already
    closed). *)

val duration_at : t -> bw:float -> float
(** Transmission time [volume / bw] at rate [bw > 0]. *)

val is_rigid : t -> bool
(** True when [min_rate] and [max_rate] coincide (relative tolerance
    [1e-9]): the scheduler has no freedom on the assigned bandwidth. *)

val slack : t -> float
(** [max_rate /. min_rate >= 1]; 1 for rigid requests. *)

val routed_on : t -> Gridbw_topology.Fabric.t -> bool
(** Both endpoints are valid ports of the fabric. *)

val check_routes : string -> Gridbw_topology.Fabric.t -> t list -> unit
(** Raises [Invalid_argument "<label>: request <id> routed on unknown
    port"] for the first request not {!routed_on} the fabric; [label]
    names the caller. *)

val check_route :
  string -> Gridbw_topology.Fabric.t -> id:int -> ingress:int -> egress:int -> unit
(** {!check_routes} on one route, for callers with their own request
    type. *)

val compare : t -> t -> int
(** Total order by [id]. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
