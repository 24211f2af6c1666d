(** The daemon's admission state machine, socket-free.

    Composes the {!Gridbw_core.Online} controller (paper constraint set
    (1), GREEDY-style: decide at submission time) with the durable
    journal: every [admit] journals an [Arrival] plus its decision, every
    effective [cancel] a [Preempt], through the same event codec the
    batch runs use — so [gridbw recover] and [gridbw replay-trace] read a
    daemon's store exactly like a batch run's.

    Durability contract: {!handle} only {e applies and journals}; records
    may still sit in the WAL's unsynced tail.  The caller must
    {!flush} (fsync) before releasing any response to the wire —
    {!Daemon} does this once per event-loop round (group commit).

    Virtual time: the controller clock is the max decision time seen so
    far; an admit for a request whose [ts] is already past decides at the
    clock ([sigma >= ts] still holds, the policy recomputes the rate
    against the residual window).  Request [ts] must be [>= 0] so the
    journal stays monotone past its capacity prefix.

    Decisions: every id ever decided stays in a {!Decisions} table, a
    row of unboxed ints and floats, so recording a decision leaves no
    heap block behind.  A granted row keeps the number of the controller
    booking that holds its bandwidth, and [cancel] preempts that booking
    by number ({!Gridbw_core.Online.preempt_booking}); no
    {!Gridbw_alloc.Allocation.t} is kept once the controller releases
    it. *)

type t

val create :
  ?obs:Gridbw_obs.Obs.ctx ->
  ?store:Gridbw_store.Store.t ->
  policy:Gridbw_core.Policy.t ->
  Gridbw_topology.Fabric.t ->
  t
(** Fresh state.  [obs] supplies the metrics registry the [stats] verb
    dumps (a fresh enabled one is created when omitted); with [store],
    the store is attached to it once ({!Gridbw_store.Store.attach}),
    decisions are journaled and {!flush} becomes meaningful. *)

val of_recovered :
  ?obs:Gridbw_obs.Obs.ctx ->
  policy:Gridbw_core.Policy.t ->
  Gridbw_store.Store.recovered ->
  (t, string) result
(** Resume from a recovered store: audit it with
    {!Gridbw_check.Reference.audit_recovered}, then replay the journal
    into the controller with {!Gridbw_core.Online.replay} (bit-identical
    counters, held allocations and clock) and rebuild the decision table
    (granted / refused / cancelled) for [query]; for an id the journal
    decides more than once, its last event wins.  [Error] names every violation when the
    audit fails, and refuses a journal the audit skips (a fault-injector
    run). *)

val handle : ?span:Gridbw_obs.Span.t -> t -> Protocol.request -> Protocol.response
(** Decide one request.  Total: validation failures come back as typed
    [Error] responses.  Duplicate [admit] ids return the recorded
    decision again without re-deciding (at-least-once retries are safe);
    [cancel] of an already-cancelled id is likewise idempotent; [cancel]
    of a refused id answers "was rejected", of a finished transfer
    "transfer already finished".  [query] answers [Done] once the
    clock has reached the transfer's [tau], [Active] before.

    With [span] and an [admit] verb: the request id is recorded on the
    span, the decision accumulates its [Admit_search] / [Wal_append]
    stage durations, and the controller's probes of its live counters
    land in the span's probe count. *)

val dirty : t -> bool
(** Unflushed journal records exist: the responses of this round must not
    be released before {!flush}. *)

val flush : t -> unit
(** {!Gridbw_store.Store.flush} + clear {!dirty}.  No-op without a
    store. *)

val close : t -> unit

val records : t -> int
(** Journal records so far (0 without a store). *)

val accepted_count : t -> int
val rejected_count : t -> int
val active_count : t -> int

val obs : t -> Gridbw_obs.Obs.ctx
(** The telemetry context (shared metrics registry) — the [stats] verb
    dumps its registry. *)
