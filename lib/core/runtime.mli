(** The runtime context threaded through every admission engine.

    [ctx] packs the cross-cutting concerns of an admission path into one
    record, so engine signatures stay fixed as the runtime grows.  A
    durable journal is not a field of its own: it is a sink, and its
    owner attaches it once to [obs] with {!Gridbw_store.Store.attach}. *)

type ctx = {
  obs : Gridbw_obs.Obs.ctx;  (** telemetry: counters, trace sink, journal *)
  span : Gridbw_obs.Span.t option;
      (** the in-flight request's trace span: engines accumulate stage
          durations onto it (admit-search, WAL-append) when present *)
}

val default : ctx
(** Disabled telemetry, no span — the zero-cost context. *)

val make : ?obs:Gridbw_obs.Obs.ctx -> ?span:Gridbw_obs.Span.t -> unit -> ctx
