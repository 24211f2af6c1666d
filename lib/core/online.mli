(** Incremental on-line admission controller.

    This is the state shared by the paper's Algorithms 2 and 3 (and by the
    control-plane model): the instantaneous port counters [ali]/[ale], plus
    a release queue that returns bandwidth when accepted transfers finish.
    Drivers advance virtual time with {!advance_to} and submit requests with
    {!try_admit}; time must be non-decreasing. *)

type t

val create : Gridbw_topology.Fabric.t -> t
val fabric : t -> Gridbw_topology.Fabric.t

val now : t -> float
(** Latest time the controller has been advanced to. *)

val advance_to : t -> float -> unit
(** Move virtual time forward, releasing the bandwidth of every accepted
    allocation whose finish time [tau] is [<= time].  A [time] within
    [1e-9] relative slack of the current clock is clamped to the clock
    (event-handler float jitter must not crash a run); a genuinely past
    [time] raises [Invalid_argument]. *)

val try_admit :
  ?ctx:Runtime.ctx ->
  t ->
  Policy.t ->
  Gridbw_request.Request.t ->
  at:float ->
  Types.decision
(** Decide request [r] at time [at] (implicitly {!advance_to} [at] first).
    The policy fixes the rate; admission succeeds iff both ports have room
    at that rate.  On success the allocation starts at
    [sigma = max at ts(r)] and its bandwidth is held until {!advance_to}
    passes its [tau].

    With [ctx.obs] enabled: the decision runs under the ["admit"]
    profiling span, bumps [admit_requests_total] /
    [admit_accepted_total] / [admit_rejected_total], and (when tracing)
    emits an [Accept] or [Reject] event — saturated rejects carry the
    tighter port and its headroom at decision time.

    A journal attached to [ctx.obs] ({!Gridbw_store.Store.attach})
    records the decision like any other trace sink.  With [ctx.span], the decision search and the journaling append are
    accumulated onto the request's trace span as the [Admit_search] and
    [Wal_append] stages. *)

val peek_cost : t -> Policy.t -> Gridbw_request.Request.t -> at:float -> (float * float) option
(** [(bw, cost)] the request would get if admitted now, where [cost] is the
    WINDOW heuristic's saturation [max((ali+bw)/B_in, (ale+bw)/B_out)]
    (section 5.2); [None] when the deadline is no longer reachable.  Does
    not modify the controller (apart from an implicit {!advance_to}). *)

val preempt : ?ctx:Runtime.ctx -> t -> Gridbw_alloc.Allocation.t -> bool
(** Revoke a still-held allocation (matched by physical identity),
    returning its bandwidth to both ports immediately.  Returns [false]
    if the allocation already finished or was already preempted.  The
    fault subsystem's capacity-revision path uses this to shed load after
    a port degradation.  With [ctx.obs], a successful preemption bumps
    [preempted_total] and emits a [Preempt] event. *)

val last_booking : t -> int
(** The number of the latest booking made by {!try_admit} or {!replay}:
    bookings are numbered from 0 in the order they are made; [-1] when
    none has been made. *)

val preempt_booking : ?ctx:Runtime.ctx -> t -> int -> bool
(** {!preempt} the booking with this number ({!last_booking} right
    after it was made).  Returns [false] if it already finished or was
    already preempted.  A caller that records the number need not keep
    the {!Gridbw_alloc.Allocation.t}: the daemon's decision table cancels
    this way. *)

val replay : t -> Gridbw_obs.Event.t -> Gridbw_alloc.Allocation.t option
(** Apply one journaled event to the controller — the one way a journal
    (a resumed GREEDY run's or the daemon's) rebuilds it.  Feed the
    events in journal order:
    - an [Accept] re-books the allocation rebuilt from the event's own
      fields at the event's time (advance, grab, queue its release) and
      returns it;
    - a [Reject] advances the clock to its time;
    - a [Preempt] advances the clock and releases the newest still-held
      booking of that id, if any;
    - every other event is ignored.
    Nothing is emitted.  Replaying the events a run journaled leaves the
    port counters, the held allocations and the clock bit-identical to
    the live controller's.  Raises [Invalid_argument] if an [Accept] does
    not fit, which on an audited journal cannot happen. *)

val set_fabric : t -> Gridbw_topology.Fabric.t -> unit
(** Revise port capacities mid-flight (same port counts).  Counters are
    kept: a shrunk port may be left over-committed until the caller
    preempts enough allocations ({!preempt}). *)

val active_count : t -> int
(** Accepted transfers whose bandwidth is still held. *)

val used : t -> Gridbw_alloc.Port.t -> float
(** Bandwidth currently held through the port (the paper's [ali]/[ale]
    counter). *)
