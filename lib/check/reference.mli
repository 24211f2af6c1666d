(** Executable reference admission model.

    Theorem 1 makes MAX-REQUESTS NP-complete, so every engine in the repo
    is a heuristic; the only mechanical correctness anchor is the paper's
    feasibility constraint set (1).  {!Gridbw_metrics.Validate} already
    explains violations, but it shares the {!Gridbw_alloc.Profile_ref}
    machinery with the production ledger.  This module re-states
    Definition 1 from scratch — per-request window containment, rate caps,
    route validity, and a per-port capacity check — so a schedule is
    judged by two {e independent} formulations.  The audits never read
    the ledger, the profile trees or the timeline.  The capacity check is
    one sort-and-sweep per port ({!port_sweep}, O(n log n)); its naive
    O(n²) statement ({!port_overloads}) is kept as the oracle the tests
    hold it to.

    Three entry points: {!audit} scores a [(trace, decisions)] pair against
    a static fabric (the plain engines), {!audit_services} scores the
    fault injector's delivered service intervals against the
    {e time-varying} capacities induced by a fault script, and
    {!audit_recovered} decides whether a recovered journal may be served
    from.  All three run the one sweep. *)

type side = Gridbw_metrics.Hotspot.side

type violation =
  | Inconsistent of string
      (** the decision set does not partition the trace: missing, duplicate
          or unknown request ids *)
  | Bad_route of { id : int; ingress : int; egress : int }
  | Early_start of { id : int; sigma : float; ts : float }
  | Rate_above_cap of { id : int; bw : float; max_rate : float }
  | Deadline_miss of { id : int; tau : float; tf : float }
  | Duplicate of { id : int }
  | Port_overload of {
      side : side;
      port : int;
      at : float;  (** instant of worst excess *)
      usage : float;
      capacity : float;
    }
  | Volume_mismatch of { id : int; integral : float; volume : float }
      (** a profiled (malleable) allocation whose Kahan integral differs
          from the request volume — checked bit-for-bit *)

val port_sweep :
  slack:float ->
  ?probes:float list ->
  capacity:(float -> float) ->
  (float * float * float) list ->
  (float * float) option
(** The one capacity check, on the [(from, until, bw)] intervals one port
    carries over [\[from, until)]: [Some (at, usage)] at the instant of
    worst usage among those where usage exceeds [capacity at] (relative
    [slack], as the ledger), the earliest on a tie; [None] when it fits.
    Every start and end at an instant counts there, usage is a
    compensated sum, and [probes] are the instants where [capacity]
    changes.  Starts in time order and a heap of ends: O(n log n). *)

val port_overloads :
  slack:float ->
  ?probes:float list ->
  capacity:(float -> float) ->
  (float * float * float) list ->
  (float * float) option
(** {!port_sweep} stated naively: at every endpoint and probe, a plain
    sum over every interval covering the instant.  O(n²); the tests'
    oracle, nothing else calls it. *)

val audit_allocations :
  ?slack:float ->
  Gridbw_topology.Fabric.t ->
  Gridbw_alloc.Allocation.t list ->
  violation list
(** Constraint set (1) on a bare allocation list.  [slack] is the relative
    tolerance on capacity / deadline / rate comparisons (default [1e-9],
    matching the ledger).  Port overloads are reported once per port at
    the instant of worst excess. *)

val audit :
  ?slack:float ->
  Gridbw_topology.Fabric.t ->
  trace:Gridbw_request.Request.t list ->
  Gridbw_core.Types.result ->
  violation list
(** {!audit_allocations} plus decision-stream bookkeeping: the result's
    [all] list must carry exactly the trace's ids, and accepted/rejected
    must partition them. *)

val capacity_at :
  Gridbw_topology.Fabric.t ->
  Gridbw_fault.Fault.event list ->
  side ->
  int ->
  float ->
  float
(** Port capacity at one instant under a fault script: the nominal
    capacity, scaled by the factor of the [Degrade] window covering the
    instant if any, floored at the injector's residual [1e-6]. *)

val audit_services :
  ?slack:float ->
  Gridbw_topology.Fabric.t ->
  Gridbw_fault.Fault.event list ->
  Gridbw_fault.Injector.service list ->
  violation list
(** {!port_sweep} per port over the delivered service intervals, probed
    at the port's degrade endpoints: at each instant the sum of delivered
    rates through a port must fit the {e revised} capacity.
    This is the fault-run analogue of the port rows of {!audit} — initial
    admissions are not statically checkable once preemption has recycled
    their reservations. *)

val same_constraint : Gridbw_metrics.Validate.violation -> violation -> bool
(** The two oracles point at the same broken constraint (same kind, same
    request or port) — the agreement predicate of the oracle mutation
    tests. *)

val agrees : Gridbw_metrics.Validate.violation list -> violation list -> bool
(** Every violation of either oracle has a counterpart in the other. *)

val pp_violation : Format.formatter -> violation -> unit
val describe : violation -> string

(** {2 Recovered journals} *)

type verdict =
  | Clean of int  (** the audit ran and passed; the number of surviving bookings *)
  | Skipped of string  (** the journal is not one the audit applies to; why *)
  | Failed of string list  (** one line per violation *)

val audit_recovered : Gridbw_store.Store.recovered -> verdict
(** The one audit a recovered journal passes before anything serves from
    it: [Skipped] for a fault-injector journal ([journal.revised]:
    [Capacity] or [Shed] events past the capacity prefix); otherwise
    {!audit_allocations}' per-request rows on the journal's [survivors]
    (the bookings no [Preempt] cancelled), and {!port_sweep} on every
    port of the prefix fabric over the journal's
    {!Gridbw_metrics.Replay.iter_commitments}: every booking it made, a
    cancelled one until its cancel, so the survivors whole.  Both views
    come from the one journal read, {!Gridbw_metrics.Replay.of_events}.
    DESIGN §9 item 3 gives the rule and why it is sound. *)

val refusal : verdict -> string option
(** Why a server must not resume from a journal with this verdict: [None]
    for [Clean] only.  A [Skipped] journal is refused too. *)
