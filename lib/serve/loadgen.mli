(** Closed-loop load generator for the admission daemon.

    Draws a seeded workload from {!Gridbw_workload} (the §5.3 flexible
    family by default), stride-partitions it over a configurable number of
    client connections, and drives the daemon closed-loop: each connection
    sends one text frame ({!Frame.output}), waits for the response,
    records the wall-clock latency, then sends its next.  Latencies
    aggregate into the telemetry plane's log₂ histogram; percentiles come
    from {!Gridbw_obs.Metrics.percentile}.

    The generator can journal every response it {e receives} to an acks
    file (one JSON payload per line, verbatim wire bytes).  A kill-drill
    harness can compare that file against a [gridbw recover] of the
    daemon's store: write-ack-after-fsync promises every acked decision
    survives the crash bit-identically. *)

type config = {
  target : Daemon.transport;
  connections : int;  (** concurrent closed-loop clients, >= 1 *)
  requests : int;  (** total requests across all connections *)
  seed : int64;  (** workload PRNG seed — same seed, same byte stream *)
  mean_interarrival : float;  (** §5.3 arrival intensity of the drawn workload *)
  max_slack : float;  (** §5.3 window slack bound, >= 1 *)
  fabric : Gridbw_topology.Fabric.t;  (** must match the daemon's *)
  cancel_every : int;  (** cancel every Nth admitted transfer; 0 = never *)
  acks : out_channel option;  (** record every received response payload *)
  tolerate_disconnect : bool;
      (** a dropped connection stops that client quietly instead of
          failing the run — for kill drills where the daemon dies on
          purpose *)
}

val default_config :
  ?connections:int ->
  ?requests:int ->
  ?seed:int64 ->
  ?mean_interarrival:float ->
  ?max_slack:float ->
  ?fabric:Gridbw_topology.Fabric.t ->
  ?cancel_every:int ->
  ?acks:out_channel ->
  ?tolerate_disconnect:bool ->
  Daemon.transport ->
  config
(** 4 connections, 10k requests, seed 1, paper fabric, §5.3 arrivals at
    0.25 s mean, slack 4, no cancels. *)

type report = {
  sent : int;
  answered : int;  (** responses received (admits + cancels) *)
  admitted : int;
  rejected : int;
  cancelled : int;
  errors : int;  (** typed protocol-error responses *)
  disconnects : int;
  wall_s : float;
  throughput : float;  (** answered / wall_s, requests per second *)
  lat_mean_us : float;
  lat_p50_us : float;
  lat_p95_us : float;
  lat_p99_us : float;
  lat_max_us : float;
}

val run : ?log:(string -> unit) -> config -> (report, string) result
(** Drive the daemon to completion.  [Error] on connection failure (unless
    tolerated), malformed workload parameters, or a frame-level protocol
    error from the daemon. *)

val report_to_json : report -> string
(** The report as one JSON object on a single line, fields in a fixed
    order: what [gridbw loadgen --json] prints. *)

val shutdown : Daemon.transport -> (int, string) result
(** Connect, send the [shutdown] verb, wait for the [goodbye].  [Ok n]
    carries the daemon's final journal record count. *)

val pp_report : Format.formatter -> report -> unit
