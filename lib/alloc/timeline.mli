(** Balanced breakpoint tree: the O(log n) port-usage structure behind
    {!Ledger}'s admission hot path.

    Semantically a mutable {!Profile_ref}: a piecewise-constant usage level
    encoded as deltas at breakpoint times, with float keys compared exactly
    so reservations cancel out precisely on release.  Every query the
    reference answers with a full O(n) map walk is answered here along a
    single root-to-leaf descent over cached subtree aggregates.

    Caveat on float rounding: subtree sums are associated by tree shape,
    not strictly left-to-right, so results can differ from the reference in
    the last ulp when deltas are not exactly representable sums.  The
    admission slack in {!Ledger} (1e-9 relative) dwarfs this.  The
    differential suite in test/test_timeline.ml checks exact equality on an
    exactly-representable grid and tolerance equality on arbitrary floats;
    test/test_kernels.ml pins the bits of every answer on arbitrary
    floats, so the association itself cannot change unnoticed. *)

type t

val create : unit -> t
(** A fresh, empty timeline. *)

val copy : t -> t
(** Independent deep copy, O(n): nodes are mutated in place by
    [add]/[remove], so a snapshot duplicates the tree.  Later
    [add]/[remove] on either copy do not affect the other. *)

val clear : t -> unit

val add : t -> from_:float -> until:float -> float -> unit
(** [add t ~from_ ~until bw] reserves [bw] on the half-open interval
    [\[from_, until)].  Requires [from_ < until] and finite bounds.
    Negative [bw] releases (used by {!remove}).  O(log n). *)

val remove : t -> from_:float -> until:float -> float -> unit
(** Inverse of {!add} with the same arguments. *)

val usage_at : t -> float -> float
(** Allocated bandwidth at time [t] (intervals are closed on the left).
    O(log n). *)

val max_over : t -> from_:float -> until:float -> float
(** Maximum allocated bandwidth over [\[from_, until)]: the level
    {!argmax_over} reports.  0 on an empty timeline.  Raises
    [Invalid_argument] unless [from_ < until], so also on a NaN bound;
    infinite bounds are answered.  O(log n). *)

val argmax_over : t -> from_:float -> until:float -> float * float
(** [(time, level)] of the maximum over [\[from_, until)]: the earliest
    time in the interval at which {!max_over}'s value is reached ([from_]
    itself when no interior breakpoint exceeds the start level, matching a
    left-to-right scan with strictly-greater replacement).  Bounds as
    for {!max_over}.  O(log n). *)

val peak : t -> float
(** Maximum usage over the whole time axis. *)

val breakpoints : t -> float list
(** Sorted times where the usage changes (deltas that cancelled out
    exactly are dropped).  O(n). *)

val fold_segments : t -> init:'a -> f:('a -> from_:float -> until:float -> float -> 'a) -> 'a
(** Fold over the maximal constant segments with non-zero span between the
    first and last breakpoint.  The level before the first breakpoint and
    after the last is 0 and is not visited. *)

val integral : t -> float
(** Total reserved volume: ∫ usage dt (MB when usage is MB/s). *)

val is_empty : t -> bool
