(** Evaluation metrics of the paper (section 2.2 and 2.3) over one
    simulation run. *)

type t = {
  total : int;  (** number of submitted requests *)
  accepted : int;  (** number of accepted requests *)
  accept_rate : float;  (** MAX-REQUESTS objective: accepted / total *)
  utilization : float;
      (** RESOURCE-UTIL objective, time-averaged over the span
          [\[min ts, max tf\]]: granted rate over ½ Σ scaled capacities,
          where each port's capacity is clamped to its demanded rate
          ([B_scaled], section 2.2) so idle ports do not dilute the ratio *)
  raw_utilization : float;
      (** same numerator over the unclamped ½ Σ capacities *)
  volume_accept_rate : float;  (** granted MB / offered MB *)
  mean_bw : float;  (** mean assigned bandwidth over accepted requests *)
  mean_speedup : float;
      (** mean of [bw / MinRate] over accepted requests — how much faster
          than the slowest admissible rate transfers complete (≥ 1) *)
  mean_start_delay : float;  (** mean of [sigma - ts] over accepted *)
  span : float;  (** measurement horizon used for time-averaging *)
}

val compute :
  Gridbw_topology.Fabric.t ->
  all:Gridbw_request.Request.t list ->
  accepted:Gridbw_alloc.Allocation.t list ->
  t
(** All zeros when [all] is empty. *)

val guaranteed_count : f:float -> Gridbw_alloc.Allocation.t list -> int
(** The §2.3 [#guaranteed] count: accepted allocations whose bandwidth is
    at least [max (f × MaxRate, MinRate)] (relative [1e-9] slack). *)

val pp : Format.formatter -> t -> unit
