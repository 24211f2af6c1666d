(** Adversarial workload scenarios for the conformance harness.

    Each family stresses a regime where the heuristics' feasibility
    bookkeeping is most likely to crack: all demand funnelled through one
    port, deadlines with almost no slack, [MinRate ≈ MaxRate] knife-edge
    rates, and fault scripts that revise capacities while transfers are in
    flight.  Generation is driven by the repo's own deterministic
    {!Gridbw_prng.Rng}, so a scenario is fully reproducible from
    [(family, seed, size)] — which is also all a counterexample bundle
    needs to record.

    The per-request draw ({!random_request}) is shared with the test
    suite's qcheck arbitraries and the examples, so there is exactly one
    definition of "a random valid request" in the tree. *)

type family =
  | Hotspot_skew  (** heterogeneous fabric, ~70 % of requests through port 0 *)
  | Deadline_tight  (** window slack uniform in [1, 1.05] *)
  | Near_rigid  (** [MaxRate] within 1 + 1e-9 of [MinRate] *)
  | Revision_storm  (** mixed workload under an aggressive fault script *)
  | Cross_shard_storm
      (** hotspot pairs pinned to ports 0/1 — distinct shard owners under
          every partitioning — plus a cancel-heavy preempt script; feeds
          {!Harness}' sharded differential *)
  | Reshape_storm
      (** arrivals in bursts whose transfer windows overlap, slack in
          [1.3, 1.5], ~50 % hotspot routing, no faults — a booking engine
          holds several admitted-but-not-yet-started profiles exactly when
          a burst's later members are decided, so the MALLEABLE engine's
          admission-time reshaping fires constantly *)
  | Mixed  (** a blend of the above draws on a uniform fabric *)

type t = {
  family : family;
  seed : int64;
  size : int;
  fabric : Gridbw_topology.Fabric.t;
  requests : Gridbw_request.Request.t list;
  faults : Gridbw_fault.Fault.event list;
      (** empty except for [Revision_storm] (degrades, aborts, preempts)
          and [Cross_shard_storm] (preempts only) *)
}

val families : family list
val family_name : family -> string
val family_of_name : string -> family option

val random_request :
  Gridbw_prng.Rng.t ->
  Gridbw_topology.Fabric.t ->
  ?hot:float ->
  ?slack_hi:float ->
  id:int ->
  unit ->
  Gridbw_request.Request.t
(** One valid request on [fabric]: window within [\[0, 100\]], min-rate up
    to the smaller port capacity.  [hot] is the probability of routing
    through port 0 on both sides (default 0), [slack_hi] the upper bound
    of the [MaxRate/MinRate] draw (default 4). *)

val generate : family:family -> seed:int64 -> size:int -> t
(** The scenario is a pure function of its three parameters. *)

val with_requests : t -> Gridbw_request.Request.t list -> t
val with_faults : t -> Gridbw_fault.Fault.event list -> t
(** Shrinking steps: same scenario, smaller inputs. *)

val scale2 : t -> t
(** Every capacity, volume and rate doubled — ×2 is exact in binary
    floating point, so a conforming deterministic engine must take
    identical decisions with doubled bandwidths (metamorphic check M3). *)

val faults_to_json : Gridbw_fault.Fault.event list -> Gridbw_obs.Json.t
val faults_of_json : Gridbw_obs.Json.t -> (Gridbw_fault.Fault.event list, string) result
(** Fault-script persistence for counterexample bundles ([meta.json]);
    floats round-trip bit-exactly via {!Gridbw_obs.Json}. *)

val pp : Format.formatter -> t -> unit
