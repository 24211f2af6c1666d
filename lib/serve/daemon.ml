(* The serve event loop.  See daemon.mli. *)

module Obs = Gridbw_obs.Obs
module Metrics = Gridbw_obs.Metrics
module Span = Gridbw_obs.Span
module Flight = Gridbw_obs.Flight
module Store = Gridbw_store.Store
module Policy = Gridbw_core.Policy
module Fabric = Gridbw_topology.Fabric

(* The per-request and per-round metrics, keyed once. *)
let requests_total = Metrics.counter_key "serve_requests_total"
let flushes_total = Metrics.counter_key "serve_flushes_total"
let connections_active = Metrics.gauge_key "serve_connections_active"
let handle_span = Obs.span_key "serve_handle"
let flush_span = Obs.span_key "serve_flush"

(* The traced path's histograms, keyed once: one per span stage, the
   whole span, and the ledger probes of an admit. *)
let stage_hists =
  List.map (fun st -> (st, Metrics.histogram_key ("serve_stage_" ^ Span.stage_name st ^ "_ns")))
    Span.all_stages

let span_total_hist = Metrics.histogram_key "serve_span_total_ns"
let span_probes_hist = Metrics.histogram_key "serve_span_probes"

type transport = Unix_socket of string | Tcp of string * int

type config = {
  transport : transport;
  policy : Policy.t;
  fabric : Fabric.t;
  store_dir : string option;
  store_config : Store.config;
  tick : float;
  metrics_port : int option;
  span_out : string option;
  flight_recorder : string option;
}

let default_config ?(policy = Policy.Fraction_of_max 0.8)
    ?(fabric = Fabric.paper_default ()) ?store_dir ?metrics_port ?span_out ?flight_recorder
    transport =
  {
    transport;
    policy;
    fabric;
    store_dir;
    store_config = Store.default_config;
    tick = 0.1;
    metrics_port;
    span_out;
    flight_recorder;
  }

(* Every socket the loop serves, listeners included, is one [conn] in
   one table keyed by descriptor.  [eof]: nothing more to read (the peer
   finished sending, or a scrape's request line is complete), so the
   socket leaves the read set while its pending output still drains, to
   a half-closed peer too.  [dead]: an I/O error; the sweep closes it
   and drops whatever it had pending. *)
type conn = { fd : Unix.file_descr; role : role; mutable eof : bool; mutable dead : bool }

and role =
  | Listener of { scrape : bool }  (* accepts protocol clients, or /metrics scrapes *)
  | Client of Session.t
  | Scrape of scrape

(* One /metrics scrape: collect the request line, send the reply, close. *)
and scrape = { mutable request : string; mutable reply : string; mutable sent : int }

type t = {
  cfg : config;
  adm : Admission.t;
  obs : Obs.ctx;
  tracing : bool;
  span_oc : out_channel option;
  flight : Flight.t option;
  log : string -> unit;
  (* Socket I/O buffers, one pair per daemon: reads land in [rbuf] and
     feed the connection from there; pending output goes out through
     [wbuf] in slices of at most its size. *)
  rbuf : Bytes.t;
  wbuf : Bytes.t;
  conns : (Unix.file_descr, conn) Hashtbl.t;
  mutable clients : int;
  mutable next_conn : int;
  mutable stopping : bool;
  (* Until this instant the listeners stay out of the read set: an
     accept failed for want of descriptors.  0 when accepting. *)
  mutable accept_paused_until : float;
}

let admission t = t.adm
let connections t = t.clients
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
            (Printf.sprintf "recovered store %s: %d records, %d torn bytes dropped" dir
               (Store.records r.Store.store) r.Store.truncated_bytes);
          match Admission.of_recovered ~obs ~policy:cfg.policy r with
          | Error e -> Error e
          | Ok adm ->
              log
                (Printf.sprintf "audit clean; resuming with %d active transfers"
                   (Admission.active_count adm));
              Ok adm))

let io_buffer_bytes = 65536

let add_conn conns fd role = Hashtbl.replace conns fd { fd; role; eof = false; dead = false }

(* Bind a listener and enter it in [conns]; [name] names it in the error. *)
let listen conns ~scrape ~name bind =
  match bind () with
  | fd ->
      Unix.set_nonblock fd;
      add_conn conns fd (Listener { scrape });
      Ok ()
  | exception Unix.Unix_error (err, _, _) ->
      Error (Printf.sprintf "cannot bind %s: %s" name (Unix.error_message err))
  | exception Failure e -> Error (Printf.sprintf "cannot bind %s: %s" name e)

let create ?obs ?(log = fun _ -> ()) cfg =
  Policy.validate cfg.policy;
  let obs = match obs with Some o -> o | None -> Obs.create () in
  match make_admission ~obs ~log cfg with
  | Error e -> Error e
  | Ok adm -> (
      let conns = Hashtbl.create 16 in
      let name = transport_name cfg.transport in
      let bound =
        Result.bind
          (listen conns ~scrape:false ~name (fun () -> bind_listener cfg.transport))
          (fun () ->
            log (Printf.sprintf "listening on %s" name);
            match cfg.metrics_port with
            | None -> Ok ()
            | Some port ->
                Result.map
                  (fun () -> log (Printf.sprintf "metrics on http://127.0.0.1:%d/metrics" port))
                  (listen conns ~scrape:true ~name:"metrics port" (fun () -> bind_metrics port)))
      in
      match bound with
      | Error e ->
          Admission.close adm;
          Hashtbl.iter (fun fd _ -> try Unix.close fd with Unix.Unix_error _ -> ()) conns;
          Error e
      | Ok () ->
          let span_oc = Option.map open_out_bin cfg.span_out in
          Option.iter
            (fun p -> log (Printf.sprintf "tracing spans to %s" p))
            cfg.span_out;
          let flight =
            Option.map
              (fun path ->
                let f = Flight.create path in
                log (Printf.sprintf "flight recorder: %s (%d bytes)" path Flight.default_size);
                f)
              cfg.flight_recorder
          in
          Ok
            {
              cfg;
              adm;
              obs;
              tracing = span_oc <> None || flight <> None;
              span_oc;
              flight;
              log;
              rbuf = Bytes.create io_buffer_bytes;
              wbuf = Bytes.create io_buffer_bytes;
              conns;
              clients = 0;
              next_conn = 0;
              stopping = false;
              accept_paused_until = 0.;
            })

(* --- the event loop --- *)

let peer_name = function
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (a, p) -> Printf.sprintf "%s:%d" (Unix.string_of_inet_addr a) p

(* Close every connection [p] holds for.  They are collected first: the
   table must not change while it is walked. *)
let close_where t p =
  Hashtbl.fold (fun _ c acc -> if p c then c :: acc else acc) t.conns []
  |> List.iter (fun c ->
         (try Unix.close c.fd with Unix.Unix_error _ -> ());
         Hashtbl.remove t.conns c.fd;
         match c.role with Client _ -> t.clients <- t.clients - 1 | Listener _ | Scrape _ -> ())

(* Accept what is pending on listener [l].  EAGAIN ends the attempt;
   EINTR retries; ECONNABORTED (the peer left while queued) skips that
   connection.  Any other error (EMFILE or ENFILE: no descriptor left)
   ends this round's accepts and keeps the listeners out of the read set
   for one tick, so the loop waits instead of spinning on a listener it
   cannot serve; the queued peers wait in the backlog. *)
let rec accept_all t l ~scrape =
  match Unix.accept ~cloexec:true l with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
      accept_all t l ~scrape
  | exception Unix.Unix_error _ -> t.accept_paused_until <- Unix.gettimeofday () +. t.cfg.tick
  | fd, addr ->
      Unix.set_nonblock fd;
      let role =
        if scrape then Scrape { request = ""; reply = ""; sent = 0 }
        else begin
          let id = t.next_conn in
          t.next_conn <- id + 1;
          t.clients <- t.clients + 1;
          Obs.count t.obs "serve_connections_total";
          Client
            (Session.create ~timed:t.tracing ~id ~peer:(peer_name addr) ())
        end
      in
      add_conn t.conns fd role;
      accept_all t l ~scrape

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

(* The first [n] bytes of [rbuf] arrived on scrape [c].  A complete
   request line renders the reply and ends reading; a line past 4 KiB
   closes the connection unanswered. *)
let scrape_input t c s n =
  s.request <- s.request ^ Bytes.sub_string t.rbuf 0 n;
  match String.index_opt s.request '\n' with
  | Some i ->
      s.reply <- metrics_reply t (String.sub s.request 0 i);
      c.eof <- true
  | None -> if String.length s.request > 4096 then c.dead <- true

(* --- connection I/O ---

   One error policy for every connection: EAGAIN/EWOULDBLOCK ends the
   attempt, EINTR retries it, and any other error marks the connection
   dead, for the sweep to close.  The loop and the other connections go
   on. *)

let pending c =
  (not c.dead)
  &&
  match c.role with
  | Client s -> Session.pending s
  | Scrape s -> s.sent < String.length s.reply
  | Listener _ -> false

(* Read everything currently available on [c]; [feed n] takes each
   read's [n] bytes from the start of [rbuf]. *)
let rec read_conn t c feed =
  match Unix.read c.fd t.rbuf 0 (Bytes.length t.rbuf) with
  | 0 -> c.eof <- true
  | n ->
      feed n;
      if n = Bytes.length t.rbuf && not (c.eof || c.dead) then read_conn t c feed
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_conn t c feed
  | exception Unix.Unix_error _ -> c.dead <- true

(* Copy the next slice of [c]'s pending output to [wbuf]; its length. *)
let blit_out t c =
  match c.role with
  | Client s -> Session.blit_out s t.wbuf
  | Scrape s ->
      let n = Int.min (Bytes.length t.wbuf) (String.length s.reply - s.sent) in
      Bytes.blit_string s.reply s.sent t.wbuf 0 n;
      n
  | Listener _ -> 0

let wrote c k =
  match c.role with
  | Client s -> Session.wrote s k
  | Scrape s -> s.sent <- s.sent + k
  | Listener _ -> ()

(* Write pending output until the socket would block or nothing is left. *)
let rec write_conn t c =
  if pending c then
    match Unix.write c.fd t.wbuf 0 (blit_out t c) with
    | k ->
        wrote c k;
        write_conn t c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_conn t c
    | exception Unix.Unix_error _ -> c.dead <- true

(* Dead, or nothing left to send and nothing more to come. *)
let finished c =
  c.dead
  || (not (pending c))
     && (c.eof || match c.role with Client s -> Session.want_close s | _ -> false)

(* Open a span for a request just decoded on [s], folding the session's
   measured decode/parse time into it (that work predates the span
   object, so the open instant is backdated to cover it). *)
let open_span t s =
  if not t.tracing then None
  else begin
    let sp = Span.start ~conn:(Session.id s) () in
    let decode_ns, parse_ns = Session.stage_ns s in
    Span.record sp Span.Frame_decode decode_ns;
    Span.record sp Span.Protocol_parse parse_ns;
    Span.backdate sp (decode_ns +. parse_ns);
    Some sp
  end

let observe t k v =
  if Obs.enabled t.obs then Metrics.observe (Metrics.histogram_of (Obs.metrics t.obs) k) v

(* A finished span lands in three places: the per-stage latency
   histograms (the /metrics view), the span sink file, and the flight
   recorder's persistent ring. *)
let emit_span t sp =
  Span.finish sp;
  List.iter
    (fun (st, k) ->
      let d = Span.duration sp st in
      if d > 0. then observe t k d)
    stage_hists;
  observe t span_total_hist (Span.total_ns sp);
  if Span.probes sp > 0 then observe t span_probes_hist (float_of_int (Span.probes sp));
  Option.iter (fun f -> Flight.append f sp) t.flight;
  match t.span_oc with
  | None -> ()
  | Some oc ->
      let b = Buffer.create 128 in
      Span.Binary.encode b sp;
      Buffer.output_buffer oc b

(* Drain one session's decoded messages into the round's response list.
   Responses are not queued on the session yet: the whole round is held
   back until the store flush below (ack-after-fsync). *)
let handle_ready t s acc =
  let rec loop acc =
    match Session.next s with
    | None -> acc
    | Some msg ->
        let span, resp =
          match msg with
          | Session.Request Protocol.Shutdown ->
              t.stopping <- true;
              Obs.incr t.obs requests_total;
              (None, Admission.handle t.adm Protocol.Shutdown)
          | Session.Request req ->
              Obs.incr t.obs requests_total;
              let span = open_span t s in
              ( span,
                Obs.span t.obs handle_span (fun () ->
                    Admission.handle ?span t.adm req) )
          | Session.Undecodable resp | Session.Broken resp ->
              Obs.count t.obs "serve_protocol_errors_total";
              (None, resp)
        in
        let handled = match span with Some _ -> Span.now_ns () | None -> 0. in
        loop ((s, span, handled, resp) :: acc)
  in
  loop acc

let round t ~readable =
  (* 1. decode + decide, collecting responses in arrival order *)
  let responses =
    List.rev (List.fold_left (fun acc c -> handle_ready t c acc) [] readable)
  in
  (* 2. make the round's decisions durable before anyone hears about them *)
  if Admission.dirty t.adm then begin
    Obs.span t.obs flush_span (fun () -> Admission.flush t.adm);
    Obs.incr t.obs flushes_total;
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
    (fun (s, span, _, resp) ->
      Span.timed span Span.Reply_write (fun () -> Session.queue s resp);
      Option.iter (emit_span t) span)
    responses

(* Serve what [select] found readable: accept on ready listeners, feed
   ready clients' bytes to their sessions and scrapes' to their request
   lines, and decide the clients' requests in accept order, whatever
   order [select] reported them in. *)
let serve_ready t ready =
  let readable =
    List.fold_left
      (fun acc fd ->
        match Hashtbl.find_opt t.conns fd with
        | Some { role = Listener { scrape }; _ } ->
            accept_all t fd ~scrape;
            acc
        | Some ({ role = Client s; _ } as c) ->
            read_conn t c (Session.feed_sub s t.rbuf 0);
            s :: acc
        | Some ({ role = Scrape s; _ } as c) ->
            read_conn t c (scrape_input t c s);
            acc
        | None -> acc)
      [] ready
  in
  round t
    ~readable:(List.sort (fun a b -> Int.compare (Session.id a) (Session.id b)) readable)

(* Serve until [stop]; then the same loop drains: the listeners close,
   reads stop, and rounds go on while output is pending, for at most
   2 s.  Then flush and close the store. *)
let run t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let rec loop deadline =
    let deadline =
      if t.stopping && deadline = Float.infinity then begin
        t.log "shutting down: draining connections";
        close_where t (fun c -> match c.role with Listener _ -> true | _ -> false);
        Unix.gettimeofday () +. 2.0
      end
      else deadline
    in
    if t.accept_paused_until > 0. && Unix.gettimeofday () >= t.accept_paused_until then
      t.accept_paused_until <- 0.;
    let paused = t.accept_paused_until > 0. in
    let read_fds, write_fds =
      Hashtbl.fold
        (fun fd c (r, w) ->
          let off =
            t.stopping || c.eof || (paused && match c.role with Listener _ -> true | _ -> false)
          in
          ((if off then r else fd :: r), if pending c then fd :: w else w))
        t.conns ([], [])
    in
    if not (t.stopping && (write_fds = [] || Unix.gettimeofday () >= deadline)) then begin
      (match Unix.select read_fds write_fds [] t.cfg.tick with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | ready, _, _ ->
          serve_ready t ready;
          Hashtbl.iter (fun _ c -> write_conn t c) t.conns;
          close_where t finished;
          Obs.set t.obs connections_active (float_of_int t.clients));
      loop deadline
    end
  in
  loop Float.infinity;
  close_where t (fun _ -> true);
  (match t.cfg.transport with
  | Unix_socket path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | Tcp _ -> ());
  Admission.flush t.adm;
  let records = Admission.records t.adm
  and accepted = Admission.accepted_count t.adm
  and rejected = Admission.rejected_count t.adm in
  Admission.close t.adm;
  Option.iter close_out t.span_oc;
  Option.iter Flight.close t.flight;
  t.log
    (Printf.sprintf "stopped: %d journal records, %d accepted, %d rejected" records
       accepted rejected)
