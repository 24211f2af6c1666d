(** Instantaneous port-usage counters for on-line heuristics.

    The paper's Algorithms 2 and 3 track [ali(i)] / [ale(e)] — the
    bandwidth currently allocated on each ingress / egress port — and
    compare against the port capacities.  [Live.t] is exactly that state;
    time is managed by the caller (grab on admission, release when the
    transfer finishes). *)

type t

val create : Gridbw_topology.Fabric.t -> t
val fabric : t -> Gridbw_topology.Fabric.t

val set_fabric : t -> Gridbw_topology.Fabric.t -> unit
(** Swap in a revised fabric (same port counts, possibly different
    capacities).  Counters are untouched: a shrunk port may be left
    over-committed — callers are expected to preempt until {!fits} holds
    again (the fault subsystem's capacity-revision path). *)

val probe_count : t -> int
(** Port-counter probes performed so far: each {!fits} (and so each
    {!try_grab}) compares the two counters of a route against their
    capacities and counts 2.  The on-line analogue of
    {!Gridbw_alloc.Ledger.probe_count} — admission spans record the delta
    across a decision as the search's work. *)

val ingress_used : t -> int -> float
(** [ali(i)]. *)

val egress_used : t -> int -> float
(** [ale(e)]. *)

val fits : t -> ingress:int -> egress:int -> bw:float -> bool
(** [ali(i) + bw <= B_in(i)] and [ale(e) + bw <= B_out(e)] (with the usual
    [1e-9] relative slack). *)

val grab : t -> ingress:int -> egress:int -> bw:float -> unit
(** Add [bw] to both counters.  Does not check capacity. *)

val release : t -> ingress:int -> egress:int -> bw:float -> unit
(** Subtract [bw] from both counters, clamping tiny negative residue
    from float cancellation back to 0. *)

val try_grab : t -> ingress:int -> egress:int -> bw:float -> bool
(** {!fits} then {!grab}; returns whether it grabbed. *)

(** {2 Per-side halves}

    For shards owning only one end of a route: same expressions as the
    two-sided forms, so an ingress-half on one shard plus an egress-half
    on another is bit-identical to the unsharded operation.  Each
    per-side fits counts 1 probe. *)

val fits_ingress : t -> ingress:int -> bw:float -> bool
val fits_egress : t -> egress:int -> bw:float -> bool
val grab_ingress : t -> ingress:int -> bw:float -> unit
val grab_egress : t -> egress:int -> bw:float -> unit
val release_ingress : t -> ingress:int -> bw:float -> unit
val release_egress : t -> egress:int -> bw:float -> unit

val reset : t -> unit
