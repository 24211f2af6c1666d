(** Reference implementation of the piecewise-constant port profile.

    The profile stores, for each breakpoint time, the change (delta) of the
    allocated bandwidth at that instant; the usage on an interval is the
    prefix sum of deltas, recomputed by a full walk on every query — O(n)
    per query.  Breakpoint times come verbatim from request fields, so
    float keys compare exactly and reservations cancel out precisely on
    release.

    This is the oracle the O(log n) {!Timeline} structure is differentially
    tested against, query for query: {!usage_at}, {!max_over}, {!peak},
    and {!breakpoints} filtered to a range for
    {!Timeline.breakpoints_over}.  The ledger's admission hot path uses
    {!Timeline}. *)

type t

val empty : t

val add : t -> from_:float -> until:float -> float -> t
(** [add p ~from_ ~until bw] reserves [bw] on the half-open interval
    [\[from_, until)].  Requires [from_ < until] and finite bounds.
    Negative [bw] releases (used by {!remove}). *)

val remove : t -> from_:float -> until:float -> float -> t
(** Inverse of {!add} with the same arguments. *)

val usage_at : t -> float -> float
(** Allocated bandwidth at time [t] (intervals are closed on the left). *)

val max_over : t -> from_:float -> until:float -> float
(** Maximum allocated bandwidth over [\[from_, until)].  0 on an empty
    profile.  Requires [from_ < until]. *)

val peak : t -> float
(** Maximum usage over the whole time axis. *)

val breakpoints : t -> float list
(** Sorted times where the usage changes (deltas that cancelled out
    exactly are dropped). *)

val is_empty : t -> bool
