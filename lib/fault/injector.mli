(** Fault injection and recovery: replay GREEDY / WINDOW admission as a
    discrete-event simulation while a fault script revises port
    capacities, aborts hosts and preempts transfers.

    With an empty script the replay is {e bit-identical} to
    {!Gridbw_core.Flexible.greedy} / [window] — same decision stream,
    same accepted order, same summary floats — so fault runs compare
    cleanly against the fault-free baselines.

    When a degradation shrinks a port below its committed bandwidth, a
    {!Victim} policy picks transfers to preempt.  Under [Resubmit]
    recovery a preempted request comes back as a {e residual} request
    (volume = remaining MB, same deadline and rate cap) after the control
    plane's renegotiation delay; if the renegotiation is rejected (the
    port is still degraded), the client re-signals when a degraded port
    is next restored.  Time from the preemption to the re-admission, or
    to the deadline when the residual gives up, accrues as
    guarantee-violation time; an aborted host accrues none. *)

type admission = Greedy | Window of float  (** WINDOW with its batching step *)

type recovery =
  | No_recovery  (** preempted transfers are lost *)
  | Resubmit  (** residual re-admission after the renegotiation delay *)

type config = {
  policy : Gridbw_core.Policy.t;  (** rate policy for admission *)
  admission : admission;
  victim : Victim.t;
  recovery : recovery;
  renegotiation_delay : float;
      (** seconds from a preemption to its residual's re-admission
          decision; must be non-negative *)
  check_invariants : bool;
      (** assert after every event that no port exceeds its current
          capacity (testing aid; raises [Failure] on violation) *)
}

val default_config :
  ?policy:Gridbw_core.Policy.t -> ?admission:admission -> unit -> config
(** Min-rate GREEDY, smallest-residual victims, resubmit recovery, the
    default control plane's renegotiation delay
    ({!Gridbw_control.Plane.renegotiation_delay}, 11 ms), invariant checks
    off. *)

val admission_name : admission -> string

(** One contiguous constant-rate service interval actually delivered. *)
type service = { s_ingress : int; s_egress : int; s_bw : float; s_from : float; s_until : float }

type report = {
  result : Gridbw_core.Types.result;
      (** initial admission decisions, comparable to the fault-free run *)
  outcomes : Gridbw_metrics.Resilience.outcome list;  (** per request, input order *)
  stats : Gridbw_metrics.Resilience.t;
  services : service list;
      (** every delivered interval, for post-hoc capacity auditing *)
  span : float;  (** workload span used for goodput *)
}

val run :
  ?ctx:Gridbw_core.Runtime.ctx ->
  Gridbw_topology.Fabric.t ->
  config ->
  Fault.event list ->
  Gridbw_request.Request.t list ->
  report
(** Validates the script against the fabric ({!Fault.validate}) and the
    requests against the fabric, then simulates.  Deterministic: same
    inputs give the same report.

    Both admission modes run one replay: the same per-request logs,
    preemption, service accounting and fault-script handling.  A mode
    supplies only its booking substrate (the {!Gridbw_core.Online}
    counters or a {!Gridbw_alloc.Ledger}), its arrival schedule, its shed
    round (the port's instantaneous excess, or the ledger's peak over the
    outage) and how a residual is re-admitted (after the renegotiation
    delay, or at the next batch boundary after it).

    With [ctx]: admissions trace and count as under the fault-free
    heuristics, engine pops feed the engine's dispatch counter and
    queue-depth histogram, capacity revisions emit [Capacity] events,
    each effective shed round emits a [Shed] event (and runs under the
    ["shed"] profiling span), and preemptions emit [Preempt] events
    stamped at the fault's time.  Residual
    re-admissions re-use the original request id, so a fault-run trace
    can contain several Accept records for one id — [gridbw replay-trace]
    therefore targets plain-run traces only.  A journal attached to
    [ctx.obs] records the same event stream; {!Gridbw_check.Reference.audit_recovered}
    skips such journals, since their capacity revisions leave no single
    fabric to audit against. *)

val scheduler : config -> Fault.event list -> Gridbw_core.Scheduler.t
(** The injector as a first-class scheduler: runs the full fault
    simulation and exposes the admission decision stream
    ([(run ...).result]).  Named ["faulty-<admission>[<n> events]"]. *)
