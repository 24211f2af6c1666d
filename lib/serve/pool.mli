(** Worker pool over {!Shard_admission}: one worker domain per shard.
    The daemon does not serve through it; it survives as the subject of
    perfbench's [pool.op] layer.

    A caller {!submit}s a batch of requests (sticky by connection, so
    one connection's requests are answered in order) and then {!await}s
    their slots.  Workers run concurrently, so admissions touching
    different shards proceed in parallel. *)

type t
type slot

val create : Shard_admission.t -> t
(** Spawn one worker domain per shard of the engine. *)

val submit : t -> conn:int -> Protocol.request -> slot
(** Enqueue one request on connection [conn]'s worker; never blocks. *)

val await : slot -> Protocol.response
(** Block until the worker has decided. *)

val stop : t -> unit
(** Drain and join the workers, then the engine's shard domains
    (idempotent). *)
