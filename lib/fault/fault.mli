(** Fault model: deterministic schedules of port degradations, end-host
    aborts and operator preemptions.

    The paper's system model (section 2) assumes access-point capacities
    never change; this module supplies the schedules under which the
    recovery machinery ({!Injector}) is exercised.  Scripts are plain
    event lists — hand-authored for tests, or drawn from a PRNG-driven
    renewal model ({!generate}) so every run is reproducible from a
    seed. *)

type side = Ingress | Egress

type event =
  | Degrade of { side : side; port : int; factor : float; from_ : float; until : float }
      (** port capacity drops to [factor × nominal] on [\[from_, until)];
          [factor = 0] is a full outage (the injector keeps a tiny
          residual capacity so fabric invariants hold) *)
  | Abort of { request_id : int; at : float }
      (** the request's end host dies at [at]: its transfer is revoked and
          never resubmitted *)
  | Preempt of { request_id : int; at : float }
      (** operator-driven revocation at [at]; the transfer goes through
          normal recovery (residual re-admission) *)

val time_of : event -> float
val sort : event list -> event list
val side_name : side -> string

val validate : Gridbw_topology.Fabric.t -> event list -> unit
(** Check ports, factors, windows and times; degradation windows of one
    port must not overlap.  Raises [Invalid_argument] otherwise. *)

type spec = {
  mtbf : float;  (** mean up-time between failures per port, s *)
  mean_outage : float;  (** mean degradation duration, s *)
  depth_lo : float;  (** retained-capacity fraction, lower bound *)
  depth_hi : float;  (** retained-capacity fraction, upper bound *)
}

val default_spec : spec
(** MTBF 400 s, outages of mean 60 s retaining 20–60 % of capacity. *)

val generate :
  Gridbw_prng.Rng.t -> Gridbw_topology.Fabric.t -> horizon:float -> spec -> event list
(** Per-port renewal process on [\[0, horizon)]: exponential up-times and
    outage durations, uniform depths.  Sorted by time. *)

val generate_aborts :
  Gridbw_prng.Rng.t -> fraction:float -> Gridbw_request.Request.t list -> event list
(** Each request's host dies with probability [fraction], at a uniform
    time inside its transmission window. *)

val horizon_of_requests : Gridbw_request.Request.t list -> float
(** Latest deadline of the workload — the natural fault horizon. *)
