(** The grid overlay fabric of the paper's system model (section 2).

    The network is a set of ingress access points and a set of egress access
    points; the core between them is assumed lossless and over-provisioned,
    so the only capacity constraints live at the access points.  A fabric is
    therefore fully described by the two capacity vectors [B_in] and
    [B_out].  Ports are identified by their index in each vector. *)

type t

val make : ingress:float array -> egress:float array -> t
(** Build a fabric from explicit capacity vectors.  Capacities must be
    finite and positive, and both sides non-empty.
    Raises [Invalid_argument] otherwise.  The arrays are copied. *)

val uniform : ingress_count:int -> egress_count:int -> capacity:float -> t
(** Homogeneous fabric: every port has the same [capacity]. *)

val paper_default : unit -> t
(** The evaluation platform of section 4.3: 10 ingress and 10 egress points
    of 1 GB/s (= 1000 MB/s) each. *)

val ingress_count : t -> int
val egress_count : t -> int

val ingress_capacity : t -> int -> float
(** Capacity of ingress port [i]; raises [Invalid_argument] if out of
    range. *)

val egress_capacity : t -> int -> float
(** Capacity of egress port [e]; raises [Invalid_argument] if out of
    range. *)

val total_ingress_capacity : t -> float
val total_egress_capacity : t -> float

val half_total_capacity : t -> float
(** [½ (Σ B_in + Σ B_out)] — the normalisation used by both the paper's
    load definition (section 4.3) and RESOURCE-UTIL (section 2.2). *)

val same_shape : t -> t -> bool
(** Same number of ingress and egress ports (capacities may differ) —
    the precondition for revising a live controller's fabric in place. *)

val valid_ingress : t -> int -> bool
val valid_egress : t -> int -> bool

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
