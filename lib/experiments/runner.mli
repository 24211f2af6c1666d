(** Shared machinery for the experiment drivers: seeded replications of a
    (workload spec, heuristic) pair, aggregated into means.

    Experiment ids, workloads and expected shapes are indexed in DESIGN.md
    (section 4); paper-vs-measured numbers live in EXPERIMENTS.md.

    {b Time-scale compression.}  The experiment workloads shrink the §4.3
    volumes tenfold: the paper's volumes give a mean
    transfer duration of ~24 minutes, so a tractable request count never
    leaves the empty-system transient.  Scaling volumes (and nothing else)
    keeps every dimensionless quantity — offered load, rate ratios, the
    window-length/duration ratio — while letting a few-thousand-request run
    cover many transfer lifetimes.  {!steady_count} grows the request count
    with the arrival rate so the arrival span covers ≥ 8 mean durations,
    within caps that keep the O(K²) slot heuristics affordable. *)

type params = {
  count : int;  (** baseline requests per replication *)
  reps : int;  (** independent replications (seed + replication index) *)
  seed : int64;  (** base seed; replication [i] uses [seed + i] *)
}

val defaults : params
(** 600 requests, 3 replications, seed 42. *)

val quick : params
(** Small sizes for smoke tests and the bench harness: 150 requests,
    2 replications. *)

val with_params : ?count:int -> ?reps:int -> ?seed:int64 -> params -> params

type rigid_kind = [ `Fcfs | `Fifo_blocking | `Slots of Gridbw_core.Rigid.cost_kind ]
type flex_kind = [ `Greedy | `Window of float | `Window_deferred of float ]

val steady_count : ?cap:int -> int -> mean_interarrival:float -> int
(** [max base (min cap' (8 * mean_duration / mean_interarrival))] with
    [cap' = min cap (10 * base)]; default [cap] 3000. *)

val rigid_spec : params -> load:float -> Gridbw_workload.Spec.t
(** §4.3 rigid workload (scaled volumes) calibrated to the offered load. *)

val flexible_spec : params -> mean_interarrival:float -> Gridbw_workload.Spec.t
(** §5.3 flexible workload (scaled volumes). *)

val offered_load_of_interarrival : float -> float
(** The offered load a mean inter-arrival induces under the scaled
    volumes on the paper platform. *)

val scheduler_summary :
  ?ctx:Gridbw_core.Runtime.ctx ->
  params ->
  Gridbw_workload.Spec.t ->
  Gridbw_core.Scheduler.t ->
  rep:int ->
  Gridbw_metrics.Summary.t
(** One replication: draw the trace from the spec with the replication's
    seed, run the scheduler, summarise.  {!rigid_summary} and
    {!flexible_summary} are this with {!Gridbw_core.Scheduler.of_rigid} /
    [of_flexible]. *)

val rigid_summary :
  params -> load:float -> rigid_kind -> rep:int -> Gridbw_metrics.Summary.t
(** One replication of a rigid workload at the given offered load. *)

val flexible_summary :
  params ->
  mean_interarrival:float ->
  flex_kind ->
  Gridbw_core.Policy.t ->
  rep:int ->
  Gridbw_metrics.Summary.t
(** One replication of a flexible workload. *)

val mean_over_reps : params -> (rep:int -> float) -> float
(** Average a per-replication metric over [params.reps] replications. *)

val rigid_kinds : (string * rigid_kind) list
(** The §4 heuristics with their paper names: the blocking FIFO of
    Figure 4, the §4.1 FCFS, and the three slot heuristics. *)

val rigid_schedulers : (string * Gridbw_core.Scheduler.t) list
(** {!rigid_kinds} as first-class schedulers, same labels and order. *)

val policy_ladder : (string * Gridbw_core.Policy.t) list
(** MIN BW plus f ∈ {0.2, 0.5, 0.8, 1.0} — the §5.3 policy sweep. *)

val seed_for : params -> rep:int -> int64
