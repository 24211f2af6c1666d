(** Workload parameterisation (paper, sections 4.3 and 5.3).

    A spec fixes the fabric, the request-volume distribution, the range of
    requested transmission rates, the Poisson arrival intensity, and the
    number of requests.  {!Gen.generate} turns a spec plus an RNG into a
    concrete request list. *)

type volume_dist =
  | Paper_set  (** the §4.3 set: 10–90 GB by 10, 100–900 GB by 100, 1 TB *)
  | Uniform_volume of { lo : float; hi : float }  (** MB *)
  | Fixed_volume of float  (** MB *)
  | Choice of float array  (** uniform over explicit values, MB *)

type flexibility =
  | Rigid
      (** window length is exactly [volume / requested_rate]; the request
          must transmit at that rate for its whole window (§4) *)
  | Flexible of { max_slack : float }
      (** the drawn rate is the host cap ([MaxRate], the §5.3 "bandwidth
          request between 10MB/s and 1GB/s"); the transmission window is
          [u × volume / MaxRate] with [u] uniform on [\[1, max_slack\]], so
          [MinRate = MaxRate / u].  [max_slack] must be finite and ≥ 1 *)

type t = {
  fabric : Gridbw_topology.Fabric.t;
  volumes : volume_dist;
  rate_lo : float;  (** MB/s, lower bound of the requested-rate draw *)
  rate_hi : float;  (** MB/s, upper bound *)
  flexibility : flexibility;
  mean_interarrival : float;  (** s, Poisson arrival process *)
  count : int;  (** number of requests to generate *)
}

val paper_volume_set : float array
(** §4.3 volume set in MB. *)

val mean_volume : volume_dist -> float
(** Expected volume of one request under the distribution, MB. *)

val make :
  ?fabric:Gridbw_topology.Fabric.t ->
  ?volumes:volume_dist ->
  ?rate_lo:float ->
  ?rate_hi:float ->
  ?flexibility:flexibility ->
  ?count:int ->
  mean_interarrival:float ->
  unit ->
  t
(** Defaults: paper fabric (10+10 × 1 GB/s), [Paper_set] volumes, rates
    10–1000 MB/s, [Flexible {max_slack = 4.0}], 1000 requests.
    Raises [Invalid_argument] on non-positive parameters. *)

val paper_rigid : ?count:int -> load:float -> unit -> t
(** §4.3 rigid workload calibrated so the time-averaged offered load
    (Σ demanded bandwidth / ½ Σ capacities) equals [load]: by Little's law
    the mean inter-arrival time is [mean_volume / (load * half_capacity)]. *)

val paper_flexible :
  ?count:int -> ?max_slack:float -> mean_interarrival:float -> unit -> t
(** §5.3 flexible workload, arrivals every [mean_interarrival] seconds on
    average; window slack uniform on [\[1, max_slack\]] (default 4). *)

val offered_load : t -> float
(** The time-averaged offered load this spec induces:
    [mean_volume / (mean_interarrival * half_capacity)]. *)

val pp : Format.formatter -> t -> unit
