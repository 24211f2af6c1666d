(** Sharded multicore admission engine.

    The fabric's ports are partitioned across [shards] cores
    ({!Partition}); each core runs on its own OCaml 5 domain behind a
    mailbox and owns the live counters, release queue, and bookings of
    its ports.  Coordinators (the daemon's worker threads) drive the
    two-phase reserve/commit protocol of {!Core} and may run
    concurrently: operations touching disjoint shards proceed in
    parallel, conflicting ones serialize on the shard freeze.

    Linearizability: every operation draws its [(ticket, at)] from the
    {!Sequencer} while holding the freeze on every shard it touches, so
    replaying the recorded history in ticket order on a single-shard
    [Online] ledger reproduces every decision and every final port
    counter bit-for-bit ([create ~record:true] + {!history}; gated in
    test_shard and the fuzz harness).

    Journaling: with a journal attached, Arrival + decision records are
    appended inside the freeze window under one lock, so the journal's
    per-port record order equals ticket order, and one [Accept] record
    covers both ports of a cross-shard admission atomically — recovery
    is both-booked-or-neither by construction ({!of_events} replays
    per port and re-partitions onto any shard count). *)

module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Fabric = Gridbw_topology.Fabric
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event
module Store = Gridbw_store.Store

type t

type hist_op = H_admit of Request.t | H_cancel of { id : int; bw : float }
type hist_entry = { ticket : int; at : float; op : hist_op; ok : Types.decision option }
(** [ok] is the decision for admits; [Some (Accepted _)]/[None] encode
    cancel success/failure (the cancelled allocation is found by id). *)

val create :
  ?journal:Store.t ->
  ?record:bool ->
  ?spawn:bool ->
  shards:int ->
  Policy.t ->
  Fabric.t ->
  t
(** [spawn:false] runs every shard inline on the caller's thread —
    deterministic, single-threaded semantics for tests and recovery
    (default [true]: one domain per shard). *)

val shards : t -> int
val fabric : t -> Fabric.t
val policy : t -> Policy.t
val now : t -> float
val active_count : t -> int
val probe_count : t -> int

val ingress_used : t -> int -> float
val egress_used : t -> int -> float
(** Read through to the owning shard's live counter (unsynchronized:
    exact at quiescence, a monitoring-grade read while running). *)

val try_admit : ?obs:Obs.ctx -> t -> Request.t -> Types.decision
(** Admit at [max (now, ts r)] — the same arrival semantics as the
    daemon's unsharded path.  Thread-safe. *)

val cancel : ?obs:Obs.ctx -> t -> Allocation.t -> bool
(** Preempt a booked allocation; [false] when the transfer already
    finished ([tau <= now] at the sequenced instant).  Thread-safe. *)

val settle : t -> unit
(** Advance every shard to the sequencer's clock (each under its own
    freeze), draining releases that fell due on shards no recent
    operation touched.  Makes {!ingress_used}/{!egress_used} and
    {!active_count} reflect global time — the daemon's stats path and
    the linearizability check call this at read points. *)

val flush : t -> unit
val stop : t -> unit
(** Drain and join the shard domains (idempotent).  The journal is not
    closed — the owner does that. *)

val history : t -> hist_entry list
(** Recorded operations in ticket order ([create ~record:true] only). *)

(** {2 Recovery} *)

val of_events :
  ?journal:Store.t ->
  ?spawn:bool ->
  shards:int ->
  policy:Policy.t ->
  fabric:Fabric.t ->
  Event.t list ->
  (t, string) result
(** Rebuild from a recovered journal's event list (per-port replay:
    exact for any shard count, including re-partitioning a journal
    written under a different [shards]).  Fails on fault-injector
    journals (capacity revisions / sheds). *)
