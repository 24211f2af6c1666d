(** The runtime context threaded through every admission engine.

    The engines used to take a pair of optional arguments — [?obs] for
    the telemetry plane and [?store] for the durable journal — and each
    new cross-cutting concern would have added a third.  [ctx] packs
    them into one record, so engine signatures stay fixed as the runtime
    grows: the [span] slot carries the current request's trace through
    the serve path.

    The deprecated [?obs]/[?store] arguments (and the [resolve] shim
    that merged them) are gone — every entry point takes [?ctx] only. *)

type ctx = {
  obs : Gridbw_obs.Obs.ctx;  (** telemetry: counters, trace sink *)
  store : Gridbw_store.Store.t option;  (** durable admission journal *)
  span : Gridbw_obs.Span.t option;
      (** the in-flight request's trace span: engines accumulate stage
          durations onto it (admit-search, WAL-append) when present *)
}

val default : ctx
(** Disabled telemetry, no store, no span — the zero-cost
    context. *)

val make :
  ?obs:Gridbw_obs.Obs.ctx ->
  ?store:Gridbw_store.Store.t ->
  ?span:Gridbw_obs.Span.t ->
  unit ->
  ctx

val with_obs : ctx -> Gridbw_obs.Obs.ctx -> ctx
val with_store : ctx -> Gridbw_store.Store.t -> ctx
val with_span : ctx -> Gridbw_obs.Span.t -> ctx

val observed : ctx -> Gridbw_obs.Obs.ctx
(** The telemetry context an engine should emit into: [obs], teed with
    the store's journaling sink when a store is attached.  Engines call
    this once at entry and thread the merged context internally. *)
