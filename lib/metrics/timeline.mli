(** Time-resolved utilization extracted from a set of accepted
    allocations.

    The paper's metrics are aggregates; operators relieve hot spots with
    time series.  A timeline replays allocations into a fresh ledger and
    exposes, per port or fabric-wide, the reserved bandwidth as a
    piecewise-constant function, plus uniform sampling for plotting. *)

type t

val build :
  Gridbw_topology.Fabric.t -> Gridbw_alloc.Allocation.t list -> t
(** Raises [Invalid_argument] if an allocation is routed off the fabric.
    The allocations need not be feasible; the timeline reports whatever
    they sum to. *)

val span : t -> (float * float) option
(** Earliest sigma and latest tau over the allocations; [None] if empty. *)

val ingress_usage : t -> int -> at:float -> float

val total_rate : t -> at:float -> float
(** Σ over ingress ports of the reserved bandwidth at [at] (each transfer
    counted once). *)

val utilization : t -> at:float -> float
(** [total_rate / ½ (Σ B_in + Σ B_out)] — instantaneous RESOURCE-UTIL
    against raw capacity. *)

val sample :
  t -> points:int -> (float * float) list
(** [points >= 2] uniform samples of {!utilization} over {!span} (empty
    list when the timeline is empty). *)
