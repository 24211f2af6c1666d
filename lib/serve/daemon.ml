(* The serve event loop.  See daemon.mli. *)

module Obs = Gridbw_obs.Obs
module Metrics = Gridbw_obs.Metrics
module Span = Gridbw_obs.Span
module Flight = Gridbw_obs.Flight
module Store = Gridbw_store.Store
module Policy = Gridbw_core.Policy
module Fabric = Gridbw_topology.Fabric

type transport = Unix_socket of string | Tcp of string * int

type config = {
  transport : transport;
  policy : Policy.t;
  fabric : Fabric.t;
  store_dir : string option;
  store_config : Store.config;
  max_frame : int;
  tick : float;
  metrics_port : int option;
  span_out : string option;
  span_binary : bool;
  flight_recorder : string option;
  flight_size : int;
}

let default_config ?(policy = Policy.Fraction_of_max 0.8)
    ?(fabric = Fabric.paper_default ()) ?store_dir ?metrics_port ?span_out
    ?(span_binary = true) ?flight_recorder ?(flight_size = Flight.default_size)
    transport =
  {
    transport;
    policy;
    fabric;
    store_dir;
    store_config = Store.default_config;
    max_frame = Frame.max_frame_default;
    tick = 0.1;
    metrics_port;
    span_out;
    span_binary;
    flight_recorder;
    flight_size;
  }

(* [eof]: the peer finished sending.  The socket leaves the read set,
   but replies still pending drain to a half-closed peer. *)
type conn = { fd : Unix.file_descr; session : Session.t; mutable eof : bool }

(* One /metrics scrape connection: read until the request line is
   complete, send the response, close. *)
type mconn = {
  mfd : Unix.file_descr;
  mutable minbuf : string;
  mutable mout : string;
  mutable mdone : bool;  (* response generated *)
  mutable meof : bool;
}

type t = {
  cfg : config;
  listener : Unix.file_descr;
  metrics_listener : Unix.file_descr option;
  adm : Admission.t;
  obs : Obs.ctx;
  tracing : bool;
  span_oc : out_channel option;
  flight : Flight.t option;
  log : string -> unit;
  (* Socket I/O buffers, one pair per daemon: reads land in [rbuf] and
     feed the session from there; pending replies go out through [wbuf]
     in slices of at most its size. *)
  rbuf : Bytes.t;
  wbuf : Bytes.t;
  mutable conns : conn list;
  mutable mconns : mconn list;
  mutable next_conn : int;
  mutable stopping : bool;
}

let admission t = t.adm
let connections t = List.length t.conns
let stop t = t.stopping <- true

let install_signal_handlers t =
  let h = Sys.Signal_handle (fun _ -> stop t) in
  Sys.set_signal Sys.sigterm h;
  Sys.set_signal Sys.sigint h

(* --- startup --- *)

let bind_listener = function
  | Unix_socket path ->
      if Sys.file_exists path then Unix.unlink path;
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 128;
      fd
  | Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
          | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))
      in
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (addr, port));
      Unix.listen fd 128;
      fd

let transport_name = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* The /metrics scrape endpoint binds loopback only: it is an
   operational surface, not part of the served protocol. *)
let bind_metrics port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 16;
  Unix.set_nonblock fd;
  fd

let make_admission ~obs ~log cfg =
  match cfg.store_dir with
  | None ->
      log "serving without a store (decisions are not durable)";
      Ok (Admission.create ~obs ~policy:cfg.policy cfg.fabric)
  | Some dir when not (Store.exists ~dir) ->
      let store =
        Store.create ~config:cfg.store_config ~obs ~time:0. ~dir cfg.fabric
      in
      log (Printf.sprintf "initialized store %s" dir);
      Ok (Admission.create ~obs ~store ~policy:cfg.policy cfg.fabric)
  | Some dir -> (
      match Store.recover ~config:cfg.store_config ~obs ~dir () with
      | Error e -> Error (Printf.sprintf "cannot recover store %s: %s" dir e)
      | Ok r -> (
          log
            (Printf.sprintf
               "recovered store %s: %d records (%d from snapshot, %d replayed, %d torn bytes dropped)"
               dir (Store.records r.Store.store) r.Store.snapshot_cursor
               r.Store.replayed r.Store.truncated_bytes);
          match Admission.of_recovered ~obs ~policy:cfg.policy r with
          | Error e -> Error e
          | Ok adm ->
              log
                (Printf.sprintf "audit clean; resuming with %d active transfers"
                   (Admission.active_count adm));
              Ok adm))

let io_buffer_bytes = 65536

let create ?obs ?(log = fun _ -> ()) cfg =
  Policy.validate cfg.policy;
  let obs = match obs with Some o -> o | None -> Obs.create () in
  match make_admission ~obs ~log cfg with
  | Error e -> Error e
  | Ok adm -> (
      match bind_listener cfg.transport with
      | exception Unix.Unix_error (err, _, _) ->
          Admission.close adm;
          Error
            (Printf.sprintf "cannot bind %s: %s"
               (transport_name cfg.transport)
               (Unix.error_message err))
      | exception Failure e ->
          Admission.close adm;
          Error (Printf.sprintf "cannot bind %s: %s" (transport_name cfg.transport) e)
      | listener -> (
          Unix.set_nonblock listener;
          log (Printf.sprintf "listening on %s" (transport_name cfg.transport));
          match
            Option.map
              (fun port ->
                let fd = bind_metrics port in
                log (Printf.sprintf "metrics on http://127.0.0.1:%d/metrics" port);
                fd)
              cfg.metrics_port
          with
          | exception Unix.Unix_error (err, _, _) ->
              Admission.close adm;
              (try Unix.close listener with Unix.Unix_error _ -> ());
              Error
                (Printf.sprintf "cannot bind metrics port: %s" (Unix.error_message err))
          | metrics_listener ->
              let span_oc = Option.map open_out_bin cfg.span_out in
              Option.iter
                (fun p -> log (Printf.sprintf "tracing spans to %s" p))
                cfg.span_out;
              let flight =
                Option.map
                  (fun path ->
                    let f = Flight.create ~size:cfg.flight_size path in
                    log (Printf.sprintf "flight recorder: %s (%d bytes)" path cfg.flight_size);
                    f)
                  cfg.flight_recorder
              in
              Ok
                {
                  cfg;
                  listener;
                  metrics_listener;
                  adm;
                  obs;
                  tracing = span_oc <> None || flight <> None;
                  span_oc;
                  flight;
                  log;
                  rbuf = Bytes.create io_buffer_bytes;
                  wbuf = Bytes.create io_buffer_bytes;
                  conns = [];
                  mconns = [];
                  next_conn = 0;
                  stopping = false;
                }))

(* --- the event loop --- *)

let peer_name = function
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p

let rec accept_all t =
  match Unix.accept ~cloexec:true t.listener with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_all t
  | fd, addr ->
      Unix.set_nonblock fd;
      let id = t.next_conn in
      t.next_conn <- id + 1;
      let session =
        Session.create ~max_frame:t.cfg.max_frame ~timed:t.tracing ~id
          ~peer:(peer_name addr) ()
      in
      Obs.count t.obs "serve_connections_total";
      t.conns <- t.conns @ [ { fd; session; eof = false } ];
      accept_all t

let close_conn t c =
  (try Unix.close c.fd with Unix.Unix_error _ -> ());
  t.conns <- List.filter (fun c' -> c' != c) t.conns

(* Read everything currently available on [c]; feed it to the session. *)
let rec read_conn t c =
  match Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 -> c.eof <- true
  | n ->
      Session.feed_sub c.session t.rbuf 0 n;
      if n = Bytes.length t.rbuf then read_conn t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_conn t c
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
    ->
      c.eof <- true

(* Write pending replies until the socket would block or nothing is
   left.  A peer that is gone cannot take them: the connection closes
   and its pending output is dropped. *)
let rec write_conn t c =
  if Session.pending c.session then
    let n = Session.blit_out c.session t.wbuf in
    match Unix.write c.fd t.wbuf 0 n with
    | k ->
        Session.wrote c.session k;
        write_conn t c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_conn t c
    | exception
        Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _) ->
      close_conn t c

(* --- the /metrics scrape endpoint ---

   Minimal HTTP/1.0, one request per connection: parse the request line,
   reply, close.  Headers after the request line are ignored — a scraper
   gets its answer as soon as the first line is complete. *)

let http_response ~status ~body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: \
     %d\r\nConnection: close\r\n\r\n%s"
    status (String.length body) body

let metrics_reply t line =
  match String.split_on_char ' ' (String.trim line) with
  | "GET" :: path :: _ when path = "/metrics" || path = "/metrics/" ->
      Obs.count t.obs "serve_metrics_scrapes_total";
      http_response ~status:"200 OK" ~body:(Metrics.to_prometheus (Obs.metrics t.obs))
  | _ -> http_response ~status:"404 Not Found" ~body:"only GET /metrics is served\n"

let rec accept_metrics t l =
  match Unix.accept ~cloexec:true l with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_metrics t l
  | fd, _ ->
      Unix.set_nonblock fd;
      t.mconns <- { mfd = fd; minbuf = ""; mout = ""; mdone = false; meof = false } :: t.mconns;
      accept_metrics t l

let rec read_mconn t m =
  match Unix.read m.mfd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 -> m.meof <- true
  | n ->
      if not m.mdone then begin
        m.minbuf <- m.minbuf ^ Bytes.sub_string t.rbuf 0 n;
        if String.contains m.minbuf '\n' then begin
          let line = List.hd (String.split_on_char '\n' m.minbuf) in
          m.mout <- metrics_reply t line;
          m.mdone <- true
        end
        else if String.length m.minbuf > 4096 then m.meof <- true
      end;
      if n = Bytes.length t.rbuf then read_mconn t m
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_mconn t m
  | exception Unix.Unix_error _ -> m.meof <- true

let write_mconn m =
  if String.length m.mout > 0 then
    match Unix.write_substring m.mfd m.mout 0 (String.length m.mout) with
    | n -> m.mout <- String.sub m.mout n (String.length m.mout - n)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> m.meof <- true

let sweep_mconns t =
  List.iter
    (fun m ->
      if m.meof || (m.mdone && String.length m.mout = 0) then begin
        (try Unix.close m.mfd with Unix.Unix_error _ -> ());
        t.mconns <- List.filter (fun m' -> m' != m) t.mconns
      end)
    t.mconns

(* Open a span for a request just decoded on [c], folding the session's
   measured decode/parse time into it (that work predates the span
   object, so the open instant is backdated to cover it). *)
let open_span t c =
  if not t.tracing then None
  else begin
    let sp = Span.start ~conn:(Session.id c.session) () in
    let decode_ns, parse_ns = Session.stage_ns c.session in
    Span.record sp Span.Frame_decode decode_ns;
    Span.record sp Span.Protocol_parse parse_ns;
    Span.backdate sp (decode_ns +. parse_ns);
    Some sp
  end

(* A finished span lands in three places: the per-stage latency
   histograms (the /metrics view), the span sink file, and the flight
   recorder's persistent ring. *)
let emit_span t sp =
  Span.finish sp;
  List.iter
    (fun st ->
      let d = Span.duration sp st in
      if d > 0. then Obs.observe t.obs ("serve_stage_" ^ Span.stage_name st ^ "_ns") d)
    Span.all_stages;
  Obs.observe t.obs "serve_span_total_ns" (Span.total_ns sp);
  if Span.probes sp > 0 then
    Obs.observe t.obs "serve_span_probes" (float_of_int (Span.probes sp));
  Option.iter (fun f -> Flight.append f sp) t.flight;
  match t.span_oc with
  | None -> ()
  | Some oc ->
      if t.cfg.span_binary then begin
        let b = Buffer.create 128 in
        Span.Binary.encode b sp;
        Buffer.output_buffer oc b
      end
      else begin
        output_string oc (Span.to_json sp);
        output_char oc '\n'
      end

(* Drain one connection's decoded messages into the round's response list.
   Responses are not queued on the session yet: the whole round is held
   back until the store flush below (ack-after-fsync). *)
let handle_ready t c acc =
  let rec loop acc =
    match Session.next c.session with
    | None -> acc
    | Some msg ->
        let span, resp =
          match msg with
          | Session.Request Protocol.Shutdown ->
              t.stopping <- true;
              Obs.count t.obs "serve_requests_total";
              (None, Admission.handle t.adm Protocol.Shutdown)
          | Session.Request req ->
              Obs.count t.obs "serve_requests_total";
              let span = open_span t c in
              ( span,
                Obs.span t.obs "serve_handle" (fun () ->
                    Admission.handle ?span t.adm req) )
          | Session.Undecodable resp | Session.Broken resp ->
              Obs.count t.obs "serve_protocol_errors_total";
              (None, resp)
        in
        let handled = match span with Some _ -> Span.now_ns () | None -> 0. in
        loop ((c, span, handled, resp) :: acc)
  in
  loop acc

let round t ~readable =
  (* 1. decode + decide, collecting responses in arrival order *)
  let responses =
    List.rev (List.fold_left (fun acc c -> handle_ready t c acc) [] readable)
  in
  (* 2. make the round's decisions durable before anyone hears about them *)
  if Admission.dirty t.adm then begin
    Obs.span t.obs "serve_flush" (fun () -> Admission.flush t.adm);
    Obs.count t.obs "serve_flushes_total";
    if t.tracing then begin
      (* Group-commit wait: from this request's decision until the
         round's fsync completed.  A request decided early in the round
         also waits for its round-mates to be handled, and its ack
         genuinely stalled on all of it, so the whole stretch is
         attributed to the commit stage. *)
      let fsync_end = Span.now_ns () in
      List.iter
        (fun (_, span, handled, _) ->
          Option.iter
            (fun sp -> Span.record sp Span.Commit_fsync (fsync_end -. handled))
            span)
        responses
    end
  end;
  (* 3. release the acks *)
  List.iter
    (fun (c, span, _, resp) ->
      Span.timed span Span.Reply_write (fun () -> Session.queue c.session resp);
      Option.iter (emit_span t) span)
    responses

let sweep_closed t =
  let snapshot = t.conns in
  List.iter
    (fun c ->
      if (c.eof || Session.want_close c.session) && not (Session.pending c.session)
      then close_conn t c)
    snapshot

let run t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  while not t.stopping do
    let read_fds =
      (t.listener :: Option.to_list t.metrics_listener)
      @ List.map (fun m -> m.mfd) t.mconns
      @ List.filter_map (fun c -> if c.eof then None else Some c.fd) t.conns
    in
    let write_fds =
      List.filter_map
        (fun m -> if String.length m.mout > 0 then Some m.mfd else None)
        t.mconns
      @ List.filter_map
          (fun c -> if Session.pending c.session then Some c.fd else None)
          t.conns
    in
    match Unix.select read_fds write_fds [] t.cfg.tick with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | ready_r, ready_w, _ ->
        if List.mem t.listener ready_r then accept_all t;
        Option.iter
          (fun l -> if List.mem l ready_r then accept_metrics t l)
          t.metrics_listener;
        List.iter
          (fun m -> if List.mem m.mfd ready_r then read_mconn t m)
          t.mconns;
        let readable =
          List.filter (fun c -> List.mem c.fd ready_r) t.conns
        in
        List.iter (read_conn t) readable;
        round t ~readable;
        List.iter
          (fun c -> if List.mem c.fd ready_w || Session.pending c.session then write_conn t c)
          t.conns;
        List.iter
          (fun m -> if List.mem m.mfd ready_w || String.length m.mout > 0 then write_mconn m)
          t.mconns;
        sweep_closed t;
        sweep_mconns t;
        Obs.set_gauge t.obs "serve_connections_active"
          (float_of_int (List.length t.conns))
  done;
  (* Graceful shutdown: stop accepting, drain pending output briefly,
     then flush + snapshot + close the store. *)
  t.log "shutting down: draining connections";
  (try Unix.close t.listener with Unix.Unix_error _ -> ());
  Option.iter
    (fun l -> try Unix.close l with Unix.Unix_error _ -> ())
    t.metrics_listener;
  List.iter
    (fun m -> try Unix.close m.mfd with Unix.Unix_error _ -> ())
    t.mconns;
  t.mconns <- [];
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec drain () =
    let pending = List.filter (fun c -> Session.pending c.session) t.conns in
    if pending <> [] && Unix.gettimeofday () < deadline then begin
      (match
         Unix.select [] (List.map (fun c -> c.fd) pending) [] 0.05
       with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | _, ready_w, _ ->
          List.iter
            (fun c -> if List.mem c.fd ready_w then write_conn t c)
            pending);
      drain ()
    end
  in
  drain ();
  List.iter (fun c -> close_conn t c) t.conns;
  (match t.cfg.transport with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  Admission.flush t.adm;
  Admission.snapshot t.adm;
  let records = Admission.records t.adm
  and accepted = Admission.accepted_count t.adm
  and rejected = Admission.rejected_count t.adm in
  Admission.close t.adm;
  Option.iter close_out t.span_oc;
  Option.iter Flight.close t.flight;
  t.log
    (Printf.sprintf "stopped: %d journal records, %d accepted, %d rejected" records
       accepted rejected)
