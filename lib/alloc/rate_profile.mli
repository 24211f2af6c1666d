(** Step-function rate profile of a single malleable transfer.

    A profile is a sorted array of non-overlapping half-open segments
    [\[from_, until)], each carrying a strictly positive constant rate.
    Gaps between segments mean the transfer is paused (rate 0); rates
    may change only at segment boundaries, which the MALLEABLE engine
    places on ledger breakpoints.

    Unlike {!Profile_ref}, which accumulates the usage of *many* requests on
    one port, a [Rate_profile.t] describes the schedule of *one* request:
    it is attached to an {!Allocation.t} and its Kahan-summed {!integral}
    is required to equal the request volume bit-for-bit. *)

type seg = {
  from_ : float;  (** segment start (inclusive) *)
  until : float;  (** segment end (exclusive), [> from_] *)
  rate : float;  (** constant rate on the segment, [> 0] *)
}

type t = private seg array

val make : seg list -> t
(** Validates: non-empty, every field finite, [from_ < until] and
    [rate > 0] per segment, and segments sorted with
    [seg.(i).until <= seg.(i+1).from_].  Raises [Invalid_argument]
    otherwise. *)

val constant : from_:float -> until:float -> rate:float -> t
(** Single-segment profile — the shape every rigid/constant engine
    implicitly assigns. *)

val of_triples : (float * float * float) array -> t
(** [(from_, until, rate)] triples, validated like {!make}.  Inverse of
    {!to_triples}; this is the wire/journal representation. *)

val to_triples : t -> (float * float * float) array

val segments : t -> seg list
val start : t -> float
(** Start of the first segment. *)

val finish : t -> float
(** End of the last segment. *)

val peak : t -> float
(** Maximum segment rate. *)

val integral : t -> float
(** Kahan-compensated sum of [rate * (until - from_)] over the segments,
    in segment order.  The MALLEABLE engine constructs profiles so this
    equals the request volume exactly (bitwise); {!Gridbw_metrics} and
    the reference model check that contract. *)

val equal : t -> t -> bool
(** Structural (bitwise per field) equality. *)

val pp : Format.formatter -> t -> unit
