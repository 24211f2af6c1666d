(** Time-indexed bandwidth accounting for a whole fabric.

    One {!Timeline.t} per ingress and egress port, so admission checks
    ({!fits_interval}, {!max_over}) cost O(log n) in the number of live
    breakpoints.  The ledger enforces the paper's constraint set (1): at
    any instant, the bandwidth reserved through a port never exceeds its
    capacity.  Capacity checks allow a relative [1e-9] slack to absorb
    float accumulation.

    A ledger has no serialised form: {!copy} duplicates it bit for bit,
    and the readers answer for one port over one range at a time.  Ports
    are addressed with {!Port.t}. *)

type t

val create : Gridbw_topology.Fabric.t -> t
val fabric : t -> Gridbw_topology.Fabric.t

val copy : t -> t
(** An independent copy, O(n) in the breakpoints held: same fabric, same
    probe count, and every port's timeline duplicated node for node
    ({!Timeline.copy}), so the copy answers every query with the
    original's bits.  Later bookings, releases or {!set_fabric} on either
    side leave the other unchanged.  {!Gridbw_malleable.Malleable} tries
    a reshape on a copy and adopts it only when every profile closes. *)

val set_fabric : t -> Gridbw_topology.Fabric.t -> unit
(** Swap in a revised fabric (same port counts, possibly different
    capacities).  Existing reservations are untouched; intervals booked
    before a capacity cut may exceed the new capacity until the caller
    preempts enough of them (the fault subsystem's capacity-revision
    path).  All subsequent {!fits} checks use the revised capacities. *)

val fits : t -> Allocation.t -> bool
(** Would reserving this allocation keep both its ports within capacity
    over [\[sigma, tau)]? *)

val fits_interval : t -> ingress:int -> egress:int -> bw:float -> from_:float -> until:float -> bool
(** Same check for an explicit port pair / rate / interval.  A
    zero-length interval ([from_ = until]) holds nothing and always fits;
    an inverted or NaN one raises [Invalid_argument]. *)

val reserve : t -> Allocation.t -> unit
(** Record the allocation.  Raises [Invalid_argument] if it does not fit —
    callers are expected to check {!fits} first. *)

val release : t -> Allocation.t -> unit
(** Remove a previously reserved allocation (exact inverse). *)

val reserve_interval : t -> ingress:int -> egress:int -> bw:float -> from_:float -> until:float -> unit
(** Unchecked low-level reservation on an explicit interval (used by the
    slot heuristics that reserve window slices rather than whole
    allocations).  A zero-length interval is a no-op, as in
    {!release_interval}. *)

val release_interval : t -> ingress:int -> egress:int -> bw:float -> from_:float -> until:float -> unit

val capacity : t -> Port.t -> float
(** The port's capacity in the current fabric. *)

val usage_at : t -> Port.t -> float -> float
(** Reserved bandwidth through the port at a time (intervals are closed on
    the left). *)

val max_over : t -> Port.t -> from_:float -> until:float -> float
(** Maximum reserved bandwidth through the port over [\[from_, until)].
    Requires [from_ < until]. *)

val argmax_over : t -> Port.t -> from_:float -> until:float -> float * float
(** [(time, level)] of the maximum over [\[from_, until)], earliest time
    winning ties — the revision point the fault subsystem preempts at. *)

val headroom_over : t -> Port.t -> from_:float -> until:float -> float
(** [capacity t port -. max_over t port ~from_ ~until]: the largest extra
    rate the port can carry throughout the interval.  Negative when the
    port is oversubscribed (after a capacity cut).  Note admission keeps
    using {!fits_interval}'s comparison, which has the [1e-9] slack;
    [headroom_over] is a measurement, not an admission predicate. *)

val breakpoints_over : t -> Port.t -> from_:float -> until:float -> float list
(** The port's breakpoints strictly inside [(from_, until)], ascending
    ({!Timeline.breakpoints_over}): the only times inside the range where
    its reserved bandwidth changes.  Not a range probe: {!probe_count}
    does not move.  Raises [Invalid_argument] on a NaN bound and when
    [from_] is below the horizon. *)

val retire_before : t -> float -> unit
(** [retire_before t h] applies {!Timeline.retire_before} to every port:
    the breakpoints behind [h] fold into each port's base level, so the
    ledger keeps only what a query at or after [h] can see.  Afterwards
    every query must start at or after [h] (earlier ones raise
    [Invalid_argument]); bookings at any time stay valid.  Levels may
    differ from a never-retired ledger's in the last ulps, well inside
    the [1e-9] admission slack. *)

val probe_count : t -> int
(** Running count of timeline range probes ({!max_over}, {!argmax_over},
    {!headroom_over}; two per {!fits_interval}) since creation.  The
    batch schedulers report the delta per decision through the telemetry
    histogram [ledger_probes_per_decision]. *)

val within_capacity : t -> bool
(** Global invariant check: every port's peak usage (from the horizon
    on, once retired) is within its capacity (with the [1e-9] slack).
    Intended for tests. *)
