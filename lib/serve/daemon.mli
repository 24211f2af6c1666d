(** The [gridbw serve] daemon: a single-process, single-threaded
    event-loop server for the admission {!Protocol} over a Unix or TCP
    socket.

    One [select] round accepts new connections, reads every readable
    connection, decodes complete frames, and handles each request through
    {!Admission}.  Responses of the round are {e held back} until the
    store's group commit is forced ({!Gridbw_store.Store.flush}), so an
    acknowledged admit/cancel is on disk before the client can observe it
    (write-ack-after-fsync); one fsync covers every decision of the round.
    Responses on a connection are queued in request order, so clients may
    pipeline.

    Startup with an existing [--store-dir] recovers via the
    {!Gridbw_store.Store.recover} path, audits against the reference
    model, re-books the surviving admissions bit-identically and resumes
    serving.  {!stop} (wired to SIGTERM/SIGINT by
    {!install_signal_handlers}, and to the protocol's [shutdown] verb)
    drains pending output, flushes the WAL, writes a final snapshot and
    closes the store. *)

type transport = Unix_socket of string | Tcp of string * int

type config = {
  transport : transport;
  policy : Gridbw_core.Policy.t;
  fabric : Gridbw_topology.Fabric.t;
      (** the served fabric; ignored (journal wins) when recovering *)
  store_dir : string option;  (** durable journal; [None] = ephemeral daemon *)
  store_config : Gridbw_store.Store.config;
  max_frame : int;
  tick : float;  (** select timeout: latency of noticing {!stop}, seconds *)
  metrics_port : int option;
      (** loopback HTTP/1.0 [GET /metrics] Prometheus scrape endpoint,
          served from the same select loop *)
  span_out : string option;  (** trace-span sink file; enables tracing *)
  span_binary : bool;  (** span sink format: binary frames (default) or JSONL *)
  flight_recorder : string option;
      (** crash-surviving span ring file ({!Gridbw_obs.Flight});
          enables tracing *)
  flight_size : int;  (** flight-recorder file size, bytes *)
}

val default_config :
  ?policy:Gridbw_core.Policy.t ->
  ?fabric:Gridbw_topology.Fabric.t ->
  ?store_dir:string ->
  ?metrics_port:int ->
  ?span_out:string ->
  ?span_binary:bool ->
  ?flight_recorder:string ->
  ?flight_size:int ->
  transport ->
  config
(** Paper fabric, [Fraction_of_max 0.8] policy, default store config,
    1 MiB frames, 100 ms tick; no metrics port, no tracing.  Tracing
    turns on when [span_out] or [flight_recorder] is set: each request
    then carries a {!Gridbw_obs.Span} through decode → parse → admit →
    WAL append → group-commit fsync → reply, feeding the
    [serve_stage_*_ns] histograms, the span sink, and the flight
    recorder. *)

type t

val create : ?obs:Gridbw_obs.Obs.ctx -> ?log:(string -> unit) -> config -> (t, string) result
(** Bind the socket and create/recover the store.  [log] receives
    human-readable startup/recovery/shutdown lines (default: dropped).
    [Error] when the socket cannot be bound, the store cannot be
    recovered, or the recovered journal fails its audit. *)

val admission : t -> Admission.t
(** The daemon's admission state (tests poke it directly). *)

val run : t -> unit
(** Serve until {!stop}; then drain, flush, snapshot, close.  Ignores
    SIGPIPE for the whole process. *)

val stop : t -> unit
(** Ask {!run} to exit; safe from a signal handler or another thread.
    Takes effect within one [tick]. *)

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT invoke {!stop}. *)

val connections : t -> int
