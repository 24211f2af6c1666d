(** An admission state machine over the sharded multicore engine
    ({!Gridbw_shard.Engine}), the multi-domain counterpart of
    {!Admission}.  The daemon does not serve through it: it survives as
    the subject of perfbench's [shard_admission.recover] and [pool.op]
    layers.

    Unlike {!Admission}, every operation here is thread-safe: the
    {!Pool} workers call {!admit}/{!query}/{!cancel} from several
    domains at once, and the engine's two-phase protocol serializes only
    the operations that actually share a shard.  Idempotency is kept
    under concurrency: a duplicate admit (at-least-once retries) waits
    for the in-flight decider of the same id and returns its journaled
    decision instead of re-deciding. *)

module Obs = Gridbw_obs.Obs
module Store = Gridbw_store.Store
module Policy = Gridbw_core.Policy
module Fabric = Gridbw_topology.Fabric
module Engine = Gridbw_shard.Engine

type t

val create : shards:int -> policy:Policy.t -> Fabric.t -> t
(** A fresh engine without a journal. *)

val of_recovered : shards:int -> policy:Policy.t -> Store.recovered -> (t, string) result
(** Audit the recovered journal with
    {!Gridbw_check.Reference.audit_recovered} (refused unless [Clean], as
    {!Admission.of_recovered}), then rebuild the engine with
    {!Gridbw_shard.Engine.of_events} — the journal may have been written
    under a different shard count; the per-port replay re-partitions
    exactly. *)

val shards : t -> int

val admit :
  ?obs:Obs.ctx ->
  t ->
  id:int ->
  ingress:int ->
  egress:int ->
  volume:float ->
  ts:float ->
  tf:float ->
  max_rate:float ->
  Protocol.response
(** Validate, decide through the engine (which journals Arrival +
    decision atomically inside its freeze window), and record the entry.
    Observes the decision latency as [serve_stage_admit_search_ns] on
    [obs] — the same histogram the unsharded span path feeds. *)

val query : t -> int -> Protocol.response
val cancel : ?obs:Obs.ctx -> t -> int -> Protocol.response

val stop : t -> unit
(** Join the engine's shard domains.  The journal is closed by the
    store's owner. *)
