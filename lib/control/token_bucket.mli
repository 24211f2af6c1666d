(** Token-bucket policer (section 5.4 of the paper).

    The grid overlay enforces each granted allocation at the ingress access
    point: a bucket filling at the granted rate (MB/s) with a bounded burst
    (MB) decides, chunk by chunk, whether traffic conforms to the
    reservation.  Non-conforming chunks are dropped so they cannot hurt
    other reserved flows.  Time must be fed in non-decreasing order. *)

type t

val create : rate:float -> burst:float -> t
(** [rate > 0] MB/s, [burst > 0] MB (the bucket starts full).
    Raises [Invalid_argument] otherwise. *)

val try_consume : t -> at:float -> amount:float -> bool
(** Consume [amount] MB at time [at] if the bucket holds enough tokens;
    returns whether it conformed.  A non-conforming chunk consumes
    nothing (it is dropped whole, as in the paper's hardware policer). *)
