(** Durable admission journal with crash recovery.

    A store directory holds a header ([store.json], written and fsynced at
    creation) and a CRC-framed binary {!Wal} of admission-relevant events
    (arrival/accept/reject/reshape/preempt/shed/capacity-revision, in the
    {!Gridbw_obs.Event_codec.Binary} body form).  Nothing else: the log
    is the whole durable state.  [snap-*] files and [.snap-*.tmp] temps
    that older versions wrote beside it are ignored.

    One record usually holds one decision: an arrival is held back, and
    the decision right after it with the same id and time (and, for an
    [Accept] or [Reshape], bit-equal request fields) is written together
    with it as one pair record.  Any other event, and {!flush} and
    {!close}, first writes the held arrival as a record of its own, so
    records keep the order of the events.  Recovery expands each pair
    back into its two events.

    The store plugs into the telemetry plane: {!attach} wraps an
    {!Gridbw_obs.Obs.ctx} so every event the instrumented admission path
    emits is also appended to the WAL (tee'd with any existing trace
    sink).  The live store keeps nothing per booking: admission state
    lives in the engine that decides, and the journal's history views
    are rebuilt by {!recover} alone.  The store's own
    counters — [store_wal_records_total], [store_fsync_total], the
    [store_fsync_batch_size] histogram, [store_recovery_records] — land
    in the registry the store was created with, so a run's
    [--metrics-out] Prometheus dump includes them.

    Recovery invariant: a plain GREEDY run journals its decisions in
    processing order, so {e any} valid WAL prefix is the journal of the
    same run stopped after its first [k] records.  Recovery therefore
    truncates at the first torn/CRC-failing record, rebuilds state from
    the surviving WAL, and a resumed run ({!Gridbw_core.Flexible.greedy}
    given the recovered [journal.events] as its journal) re-decides the
    lost suffix bit-identically — the recovered-plus-resumed summary
    equals the uninterrupted run's, byte for byte. *)

type config = {
  wal : Wal.config;
  kill_after : int option;  (** crash-drill hook, see {!Wal.create} *)
}

val default_config : config

type t

val create :
  ?config:config -> ?obs:Gridbw_obs.Obs.ctx -> ?time:float -> dir:string ->
  Gridbw_topology.Fabric.t -> t
(** Initialize [dir] (created if missing) as a store for [fabric]: write
    and fsync the header, then journal one [Capacity] event per port
    stamped [time] (default 0; pass a value at or before the first
    arrival to keep the event stream monotone).  The capacity prefix
    makes the journal self-contained: [gridbw replay-trace] and recovery
    read the fabric from the log itself.  [obs] supplies the metrics
    registry (its sink is not used).  Raises [Invalid_argument] if [dir]
    is already a store. *)

val exists : dir:string -> bool
(** [dir] has a store header. *)

val attach : t -> Gridbw_obs.Obs.ctx -> Gridbw_obs.Obs.ctx
(** A context that journals every emitted event into the store and tees
    to [ctx]'s sink when one is attached.  Always enabled and tracing.
    Flushing the returned context {!flush}es the store.  This is the one
    way a journal joins an admission path: its owner attaches it once
    and hands the result to the engine (as [Runtime.ctx.obs]); a context
    attached twice journals every event twice. *)

val log : t -> Gridbw_obs.Event.t -> unit
(** Journal one event directly (what {!attach}'s sink does): encode it
    and append it to the WAL under the pair rule above (an [Arrival] is
    only held until the next event).  Nothing is kept per event. *)

val flush : t -> unit
(** Force the group commit: write any held arrival, then flush and fsync
    the WAL tail now, without waiting for the group-commit batch to fill
    or its delay to elapse.  Everything logged so far is durable after
    it.  [gridbw serve] calls this once per event-loop round before
    acknowledging any admit/cancel decided in that round
    (write-ack-after-fsync): an acked decision is on disk, whatever the
    WAL's group-commit batch. *)

val snapshot_now : t -> unit
(** Alias of {!flush}.  The store writes no snapshot image: the WAL alone
    is recovered. *)

val close : t -> unit
(** {!flush} and close the WAL. *)

val records : t -> int
(** WAL records appended so far (global index).  A held arrival is not
    a record yet; a pair record counts once. *)

val ledger : t -> Gridbw_alloc.Ledger.t
(** The journal's {!Gridbw_metrics.Replay.iter_commitments} as {!recover}
    found them, booked on the prefix fabric, built on the first call:
    neither {!recover} nor the recovery audit asks for it; only the
    benchmark's gate does.  Events logged later do not show here, and a
    store made by {!create} holds an empty ledger. *)

(** {2 Recovery} *)

type recovered = {
  store : t;  (** reopened for append, torn tail already truncated *)
  journal : Gridbw_metrics.Replay.t;  (** the surviving events, as the one reader reads them *)
  accepted : (float * Gridbw_alloc.Allocation.t) list;
      (** [journal.accepted]: surviving bookings with their decision times,
          decision order; a booking a later [Reshape] revised reads as its revision *)
  decided : int -> bool;
      (** [journal.decided], the journal {e as recovered}; records [store]
          appends afterwards do not show here *)
  truncated_bytes : int;  (** torn/corrupt tail bytes discarded *)
}

val recover :
  ?config:config -> ?obs:Gridbw_obs.Obs.ctx -> dir:string -> unit -> (recovered, string) result
(** Scan the WAL, truncate at the first torn/CRC-failing record (later
    segments included), and reopen the log for append.  The surviving
    events are read first, once, through
    {!Gridbw_metrics.Replay.of_events} with the header's port counts;
    the store has no fold of its own.  [Error] when [dir] is not a store,
    when the log is cut inside the capacity prefix (no fabric to recover
    against), or when a record names a port the fabric lacks or invalid
    request fields: the error names the record, and the log is left as
    it is (not torn).  Nothing is audited here:
    {!Gridbw_check.Reference.audit_recovered} decides whether the result
    may be served from, and every server and both forms of
    [gridbw recover] call it. *)
