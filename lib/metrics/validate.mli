(** The one check of the paper's constraint set (1).

    Theorem 1 makes MAX-REQUESTS NP-complete, so every engine in the repo
    is a heuristic and Definition 1's constraint set (1) is the only
    mechanical correctness anchor.  This module states it once and
    explains what is wrong with a schedule: which constraint is violated,
    where, when and by how much.  The per-request rows are window
    containment, rate caps, route validity, duplicates and a profiled
    allocation's exact volume; the port rows are one sweep per port
    ({!port_sweep}, O(n log n)).  It never reads the ledger or its
    timelines: the engines' own [Timeline]/[Live] accounting is the
    independent side it checks.

    Callers: the CLI's [run] self-check, the conformance harness and
    {!Gridbw_check.Reference}'s audits (a trace's decision stream, a fault
    run's delivered services, a recovered journal).  The naive statement
    of the sweep, {!Gridbw_check.Reference.port_overloads}, is the oracle
    the tests hold it to. *)

type violation =
  | Port_overload of {
      side : Hotspot.side;
      port : int;
      at : float;  (** instant of worst excess *)
      usage : float;
      capacity : float;
    }
  | Deadline_miss of { request_id : int; tau : float; tf : float }
  | Rate_above_max of { request_id : int; bw : float; max_rate : float }
  | Start_before_request of { request_id : int; sigma : float; ts : float }
  | Bad_route of { request_id : int; ingress : int; egress : int }
  | Duplicate_request of { request_id : int }
  | Volume_mismatch of { request_id : int; integral : float; volume : float }
      (** A profiled (malleable) allocation whose Kahan integral is not
          bit-identical to the request volume — the MALLEABLE engine's
          exactness contract.  Constant allocations are exempt (their
          volume is definitionally [bw * (tau - sigma)]). *)

val port_sweep :
  slack:float ->
  ?probes:float list ->
  capacity:(float -> float) ->
  (float * float * float) list ->
  (float * float) option
(** The capacity check, on the [(from, until, bw)] intervals one port
    carries over [\[from, until)]: [Some (at, usage)] at the instant of
    worst usage among those where usage exceeds [capacity at] (relative
    [slack], as the ledger), the earliest on a tie; [None] when it fits.
    A zero-length interval holds nothing.  Every start and end at an
    instant counts there, usage is a compensated sum, and [probes] are
    the instants where [capacity] changes.  Starts in time order and a
    heap of ends: O(n log n). *)

val check :
  Gridbw_topology.Fabric.t -> Gridbw_alloc.Allocation.t list -> violation list
(** Empty list iff the allocations form a feasible schedule.  Per-request
    violations come first, in allocation order; then port overloads,
    once per port at the instant of worst excess.  A profiled allocation
    loads its ports step by step.  Comparisons use the ledger's relative
    [1e-9] slack. *)

val check_bookings :
  Gridbw_topology.Fabric.t ->
  survivors:Gridbw_alloc.Allocation.t list ->
  (Gridbw_alloc.Allocation.t * float) list ->
  violation list
(** {!check}'s per-request rows on [survivors], and its port rows on
    every interval the bookings hold, each cut at its paired time
    ({!Replay.iter_commitments}).  [check fabric l] is
    [check_bookings fabric ~survivors:l] of [l] uncut. *)

val is_valid : Gridbw_topology.Fabric.t -> Gridbw_alloc.Allocation.t list -> bool
val describe : violation -> string
(** One line naming the violated constraint, e.g. "ingress port 0
    overloaded at t=2.000: 120.000 > 100.000 MB/s". *)

val report : Gridbw_topology.Fabric.t -> Gridbw_alloc.Allocation.t list -> string
(** Human-readable multi-line report; "schedule is feasible" when clean. *)
