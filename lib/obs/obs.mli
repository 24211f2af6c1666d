(** Telemetry context threaded through the scheduler stack.

    A [ctx] bundles an event sink and a metrics registry.  Instrumented
    code takes [?obs:Obs.ctx] defaulting to {!disabled}; with the default,
    every helper below short-circuits on one boolean, so uninstrumented
    callers pay essentially nothing.

    Events are built lazily: [Obs.event ctx (fun () -> Event.Accept ...)]
    only allocates the event when a trace sink is attached. *)

type ctx = {
  enabled : bool;
  tracing : bool;  (** a real sink is attached *)
  sink : Sink.t;
  metrics : Metrics.t;
}

val disabled : ctx
(** Everything off.  The default for every [?obs] argument. *)

val create : ?sink:Sink.t -> ?metrics:Metrics.t -> unit -> ctx
(** Metrics-only when [sink] is omitted; a fresh registry is made when
    [metrics] is omitted. *)

val enabled : ctx -> bool
val tracing : ctx -> bool
val metrics : ctx -> Metrics.t

(** {2 Events} *)

val event : ctx -> (unit -> Event.t) -> unit
(** Emit to the sink; the thunk runs only when [tracing ctx]. *)

val emit : ctx -> Event.t -> unit
(** Eager variant, for call sites that already hold the event. *)

val flush : ctx -> unit

(** {2 Metrics shorthands}

    Guarded by [enabled].  The name-based forms find the instrument by
    name on every call, a string hash: use them on cold paths.  Hot
    paths declare a {!Metrics.key} once, at module level, and use the
    keyed forms, which cost one array read after the key's first use in
    a registry (see {!Metrics.counter_of}). *)

val count : ctx -> string -> unit
val count_n : ctx -> string -> int -> unit
val observe : ctx -> string -> float -> unit

val incr : ctx -> Metrics.counter Metrics.key -> unit
val set : ctx -> Metrics.gauge Metrics.key -> float -> unit

(** {2 Profiling spans} *)

type span_key = Metrics.histogram Metrics.key

val span_key : string -> span_key
(** The key of histogram [span_<name>_ns], named once. *)

val span : ctx -> span_key -> (unit -> 'a) -> 'a
(** [span ctx k f] runs [f ()] and records its duration in nanoseconds,
    read from the monotonic clock, in [k]'s histogram.  The histogram is
    registered before [f] runs; when [f] raises, the duration is still
    recorded and the exception re-raised.  With [ctx] disabled it is a
    direct call — no clock read. *)
