(** Victim selection: which transfers to preempt when a port shrinks
    below its committed bandwidth.

    Given the over-committed port's active allocations (paired with their
    residual volume — the MB still to transfer at preemption time) and the
    excess bandwidth [need] to shed, a policy returns the allocations to
    revoke.  The trade-off: [Smallest_residual] sacrifices the least
    outstanding work per preemption, [Latest_deadline] picks the victims
    with the most slack to recover, [Proportional_squeeze] renegotiates
    every transfer on the port so the shrunk capacity is re-shared. *)

type t = Smallest_residual | Latest_deadline | Proportional_squeeze

val all : t list
val name : t -> string

val select :
  t -> need:float -> (Gridbw_alloc.Allocation.t * float) list -> Gridbw_alloc.Allocation.t list
(** Victims in preemption order.  For the two ranking policies the prefix
    stops as soon as the cumulative revoked bandwidth covers [need] (the
    whole candidate list if it never does); [Proportional_squeeze] always
    returns every candidate.  Ties break on request id, so selection is
    deterministic regardless of input order. *)
