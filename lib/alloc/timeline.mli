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
    floats, so the association itself cannot change unnoticed.  For
    the same reason {!copy} copies the tree's node pool as it is: a copy
    answers with the original's bits, where a tree rebuilt from the
    original's segments would associate its sums by its own shape.

    {b Memory.}  A timeline keeps its nodes in one pool of flat arrays
    that grows by doubling; a breakpoint dropped by an exact cancel or
    by {!retire_before} frees its node for the next insertion, so once
    the breakpoint count holds steady, an {!add} or {!remove} of an
    interval starting at or after the horizon allocates nothing.

    {b Horizon.}  {!retire_before} forgets the history behind a time: it
    folds every breakpoint keyed below it into a base level, so the tree
    holds only what a later query can still see.  Queries then start from
    the base where a whole-history tree starts from 0, and a timeline that
    is never retired answers with exactly the bits it always did.  A
    retired tree is a different shape, so its levels may differ from the
    whole-history tree's in the last ulps (exact on the representable
    grid); the [1e-9] admission slack dwarfs that.  Queries below the
    horizon raise; no reader walks the whole history, so none needs
    what a retired tree has forgotten. *)

type t

val create : unit -> t
(** A fresh, empty timeline. *)

val copy : t -> t
(** Independent copy: the node pool's arrays are copied, O(n) in the
    pool's size.  Later [add]/[remove] on either copy do not affect the
    other.  The copy keeps the horizon and its base level. *)

val add : t -> from_:float -> until:float -> float -> unit
(** [add t ~from_ ~until bw] reserves [bw] on the half-open interval
    [\[from_, until)].  Requires [from_ < until] and finite bounds.
    Negative [bw] releases (used by {!remove}).  Valid at any bounds
    after {!retire_before}: the part of the interval behind the horizon
    counts from the horizon on, and an interval that ends before it
    changes nothing.  O(log n). *)

val remove : t -> from_:float -> until:float -> float -> unit
(** Inverse of {!add} with the same arguments. *)

val retire_before : t -> float -> unit
(** [retire_before t h] moves the horizon to [h]: every breakpoint keyed
    below [h] leaves the tree, in key order, and its delta is added into
    the base level every later query starts from.  Each breakpoint is
    inserted once and retired once, so the cost is O(log n) amortized per
    breakpoint.  A horizon at or below the current one is a no-op; a
    non-finite [h] raises [Invalid_argument]. *)

val usage_at : t -> float -> float
(** Allocated bandwidth at time [t] (intervals are closed on the left).
    Raises [Invalid_argument] when [t] is below the horizon.  O(log n). *)

val max_over : t -> from_:float -> until:float -> float
(** Maximum allocated bandwidth over [\[from_, until)]: the level
    {!argmax_over} reports.  0 on an empty timeline.  Raises
    [Invalid_argument] unless [from_ < until], so also on a NaN bound, and
    when [from_] is below the horizon; infinite bounds are answered.
    O(log n). *)

val argmax_over : t -> from_:float -> until:float -> float * float
(** [(time, level)] of the maximum over [\[from_, until)]: the earliest
    time in the interval at which {!max_over}'s value is reached ([from_]
    itself when no interior breakpoint exceeds the start level, matching a
    left-to-right scan with strictly-greater replacement).  Bounds as
    for {!max_over}.  O(log n). *)

val peak : t -> float
(** Maximum usage over [\[horizon, ∞)] — the whole time axis until the
    first {!retire_before} — and at least 0. *)

val breakpoints_over : t -> from_:float -> until:float -> float list
(** The breakpoints [k] with [from_ < k < until], ascending: the times
    inside the range where the usage changes (deltas that cancelled out
    exactly are dropped).  Empty unless [from_ < until]; infinite bounds
    are answered.  Raises [Invalid_argument] on a NaN bound and when
    [from_] is below the horizon.  One pruned in-order descent,
    O(log n + k) for [k] keys returned. *)

val is_empty : t -> bool
(** No breakpoint and a zero base level. *)
