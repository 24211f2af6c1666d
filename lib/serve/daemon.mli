(** The [gridbw serve] daemon: a single-process, single-threaded
    event-loop server for the admission {!Protocol} over a Unix or TCP
    socket.

    One [select] call site serves one table of sockets: the protocol
    and [/metrics] listeners, clients and scrapes.  A round accepts new
    connections, reads every readable one, decodes complete frames, and
    handles each request through {!Admission}, clients in accept order.
    Responses of the round are {e held back} until the store's group
    commit is forced ({!Gridbw_store.Store.flush}), so an acknowledged
    admit/cancel is on disk before the client can observe it
    (write-ack-after-fsync); one fsync covers every decision of the
    round.  Responses on a connection are queued in request order, so
    clients may pipeline.  An I/O error other than EAGAIN or EINTR
    closes that connection only.

    Accept errors never end the loop.  ECONNABORTED (the peer left while
    queued) skips that connection.  Any other error, EMFILE or ENFILE
    when the descriptor table is full, ends the round's accepts and
    takes the listeners out of the read set for one [tick]: queued peers
    wait in the listen backlog until a connection closes, and the loop
    does not spin.

    Startup with an existing [--store-dir] recovers via the
    {!Gridbw_store.Store.recover} path, serves it only if
    {!Gridbw_check.Reference.audit_recovered} finds it clean, re-books
    the surviving admissions bit-identically and resumes serving.
    {!stop} (wired to SIGTERM/SIGINT by {!install_signal_handlers}, and
    to the protocol's [shutdown] verb)
    drains pending output (the same loop, listeners closed and reads
    off, for at most 2 s), flushes the WAL and closes the store.  The
    next startup recovers from the WAL alone. *)

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
  span_out : string option;  (** trace-span sink file, binary frames; enables tracing *)
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
(** Serve until {!stop}; then drain, flush, close.  Ignores
    SIGPIPE for the whole process. *)

val stop : t -> unit
(** Ask {!run} to exit; safe from a signal handler or another thread.
    Takes effect within one [tick]. *)

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT invoke {!stop}. *)

val connections : t -> int
(** Open protocol client connections; [/metrics] scrapes do not count. *)
