(** Turning a {!Spec.t} into a concrete request list. *)

val generate : Gridbw_prng.Rng.t -> Spec.t -> Gridbw_request.Request.t list
(** Draw [spec.count] requests: Poisson arrivals (exponential
    inter-arrival times of the spec's mean), uniformly random ingress and
    egress ports, volume from the spec's distribution, requested rate
    uniform in [\[rate_lo, rate_hi\]].  For rigid specs the window is
    exactly [volume / rate] and [MaxRate = MinRate = rate]; for flexible
    specs the drawn rate is the host cap ([MaxRate]) and the window is
    [u × volume / rate] with [u ~ U[1, max_slack]] ([MinRate = rate / u]).
    Ids are 0-based in arrival order; the returned list is sorted by
    arrival time. *)

val draw : Gridbw_prng.Rng.t -> Spec.t -> id:int -> ts:float -> Gridbw_request.Request.t
(** One request arriving at [ts]: the per-request draw of {!generate}
    after its arrival time (ports, volume, rate, then the slack of a
    flexible spec, in that RNG order).  {!Gridbw_workload.Diurnal}
    shares it. *)

val arrival_span : Gridbw_request.Request.t list -> float
(** [max ts -. min ts]; 0 for fewer than two requests. *)

val measured_load :
  Gridbw_topology.Fabric.t -> Gridbw_request.Request.t list -> float
(** Realised time-averaged offered load over the arrival span:
    [Σ volume / (arrival_span × ½ Σ capacities)] (paper §4.3 definition,
    time-averaged).  0 when the span is empty. *)
