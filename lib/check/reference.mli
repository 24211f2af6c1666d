(** The reference audits around the one check of constraint set (1).

    {!Gridbw_metrics.Validate} states Definition 1's constraint set (1)
    once.  This module holds what the audits add to it: the bookkeeping
    of a decision stream ({!audit}), the time-varying capacities a fault
    script induces ({!capacity_at}, {!audit_services}), and the verdict
    on a recovered journal ({!audit_recovered}).  It also keeps the naive
    O(n²) statement of the capacity sweep ({!port_overloads}), the oracle
    the tests hold {!Gridbw_metrics.Validate.port_sweep} to. *)

type violation =
  | Inconsistent of string
      (** the decision set does not partition the trace: missing, duplicate
          or unknown request ids *)
  | Infeasible of Gridbw_metrics.Validate.violation

val describe : violation -> string

val port_overloads :
  slack:float ->
  ?probes:float list ->
  capacity:(float -> float) ->
  (float * float * float) list ->
  (float * float) option
(** {!Gridbw_metrics.Validate.port_sweep} stated naively: at every
    endpoint and probe, a plain sum over every interval covering the
    instant.  O(n²); the tests' oracle, nothing else calls it. *)

val audit_allocations :
  Gridbw_topology.Fabric.t -> Gridbw_alloc.Allocation.t list -> violation list
(** {!Gridbw_metrics.Validate.check}'s violations, as [Infeasible]. *)

val audit :
  Gridbw_topology.Fabric.t ->
  trace:Gridbw_request.Request.t list ->
  Gridbw_core.Types.result ->
  violation list
(** {!audit_allocations} on the accepted allocations, plus decision-stream
    bookkeeping: the result's [all] list must carry exactly the trace's
    ids, and accepted/rejected must partition them. *)

val capacity_at :
  Gridbw_topology.Fabric.t ->
  Gridbw_fault.Fault.event list ->
  Gridbw_metrics.Hotspot.side ->
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
  Gridbw_metrics.Validate.violation list
(** {!Gridbw_metrics.Validate.port_sweep} per port over the delivered
    service intervals, probed at the port's degrade endpoints: at each
    instant the sum of delivered rates through a port must fit the
    {e revised} capacity ([slack] defaults to the ledger's [1e-9]).  The
    result holds [Port_overload]s only.  This is the fault-run analogue
    of the port rows of {!audit} — initial admissions are not statically
    checkable once preemption has recycled their reservations. *)

(** {2 Recovered journals} *)

type verdict =
  | Clean of int  (** the audit ran and passed; the number of surviving bookings *)
  | Skipped of string  (** the journal is not one the audit applies to; why *)
  | Failed of string list  (** one line per violation *)

val audit_recovered : Gridbw_store.Store.recovered -> verdict
(** The one audit a recovered journal passes before anything serves from
    it: [Skipped] for a fault-injector journal ([journal.revised]:
    [Capacity] or [Shed] events past the capacity prefix); otherwise
    {!Gridbw_metrics.Validate.check_bookings} on the prefix fabric, with
    the journal's [survivors] (the bookings no [Preempt] cancelled) for
    the per-request rows and its [bookings] for the port rows: every
    booking it made, a cancelled one until its cancel, so the survivors
    whole.  Both views come from the one journal read,
    {!Gridbw_metrics.Replay.of_events}.  DESIGN §9 item 3 gives the rule
    and why it is sound. *)

val refusal : verdict -> string option
(** Why a server must not resume from a journal with this verdict: [None]
    for [Clean] only.  A [Skipped] journal is refused too. *)
