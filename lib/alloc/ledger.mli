(** Time-indexed bandwidth accounting for a whole fabric.

    One {!Timeline.t} per ingress and egress port, so admission checks
    ({!fits_interval}, {!max_over}) cost O(log n) in the number of live
    breakpoints.  The ledger enforces the paper's constraint set (1): at
    any instant, the bandwidth reserved through a port never exceeds its
    capacity.  Capacity checks allow a relative [1e-9] slack to absorb
    float accumulation.

    Ports are addressed with {!Port.t}. *)

type t

val create : Gridbw_topology.Fabric.t -> t
val fabric : t -> Gridbw_topology.Fabric.t

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

val breakpoints : t -> Port.t -> float list
(** Sorted times where the port's reserved bandwidth changes.  Raises
    [Invalid_argument] after {!retire_before}. *)

val retire_before : t -> float -> unit
(** [retire_before t h] applies {!Timeline.retire_before} to every port:
    the breakpoints behind [h] fold into each port's base level, so the
    ledger keeps only what a query at or after [h] can see.  Afterwards
    every query must start at or after [h] (earlier ones raise
    [Invalid_argument]); bookings at any time stay valid.  Levels may
    differ from a never-retired ledger's in the last ulps, well inside
    the [1e-9] admission slack.  {!breakpoints}, {!reserved_volume} and
    {!dump} need the whole history and raise on a retired ledger. *)

val probe_count : t -> int
(** Running count of timeline range probes ({!max_over}, {!argmax_over},
    {!headroom_over}; two per {!fits_interval}) since creation.  The
    batch schedulers report the delta per decision through the telemetry
    histogram [ledger_probes_per_decision]. *)

val within_capacity : t -> bool
(** Global invariant check: every port's peak usage (from the horizon
    on, once retired) is within its capacity (with the [1e-9] slack).
    Intended for tests. *)

val reserved_volume : t -> float
(** Σ over ingress ports of ∫ usage dt — total MB of reserved ingress
    capacity (each request counted once).  Raises on a retired ledger. *)

(** {2 Dump and restore}

    A ledger reads out as the per-port list of maximal constant non-zero
    segments read off {!Timeline.fold_segments}, and {!restore} rebuilds
    one from that list: {!Gridbw_malleable.Malleable} copies a ledger as
    [restore fabric (dump t)].  The pair is a semantic round-trip:
    [restore fabric (dump t)] answers every query with the same levels as
    [t], up to the {!Timeline} caveat that subtree sums are associated by
    tree shape (exact on exactly-representable levels, last-ulp otherwise
    — well inside the ledger's [1e-9] admission slack). *)

type segment = { seg_from : float; seg_until : float; seg_level : float }

type dump = { dump_ingress : segment list array; dump_egress : segment list array }

val dump : t -> dump
(** Per-port non-zero constant segments, in increasing time order.
    Segments are disjoint, finite, and carry the port's exact usage level
    over their span.  Raises [Invalid_argument] on a retired ledger. *)

val restore : Gridbw_topology.Fabric.t -> dump -> t
(** Rebuild a ledger from a dump.  The fabric supplies port counts and
    capacities; raises [Invalid_argument] when the dump's port counts do
    not match or a segment is malformed (non-finite or empty span).  The
    probe counter restarts at 0. *)
