(* Closed-loop load generator.  See loadgen.mli. *)

module Metrics = Gridbw_obs.Metrics
module Json = Gridbw_obs.Json
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen
module Rng = Gridbw_prng.Rng

type config = {
  target : Daemon.transport;
  connections : int;
  requests : int;
  seed : int64;
  mean_interarrival : float;
  fabric : Fabric.t;
  cancel_every : int;
  acks : out_channel option;
  tolerate_disconnect : bool;
}

let default_config ?(connections = 4) ?(requests = 10_000) ?(seed = 1L)
    ?(mean_interarrival = 0.25)
    ?(fabric = Fabric.paper_default ()) ?(cancel_every = 0) ?acks
    ?(tolerate_disconnect = false) target =
  {
    target;
    connections;
    requests;
    seed;
    mean_interarrival;
    fabric;
    cancel_every;
    acks;
    tolerate_disconnect;
  }

type report = {
  sent : int;
  answered : int;
  admitted : int;
  rejected : int;
  cancelled : int;
  errors : int;
  disconnects : int;
  wall_s : float;
  throughput : float;
  lat_mean_us : float;
  lat_p50_us : float;
  lat_p95_us : float;
  lat_p99_us : float;
  lat_max_us : float;
}

(* --- client connection --- *)

let resolve host =
  try Unix.inet_addr_of_string host
  with Failure _ -> (
    match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
    | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
    | _ -> failwith (Printf.sprintf "cannot resolve host %S" host))

let connect target =
  let domain, addr =
    match target with
    | Daemon.Unix_socket path -> (Unix.PF_UNIX, Unix.ADDR_UNIX path)
    | Daemon.Tcp (host, port) -> (Unix.PF_INET, Unix.ADDR_INET (resolve host, port))
  in
  (* The daemon may still be binding its socket: retry briefly. *)
  let rec go tries =
    let fd = Unix.socket ~cloexec:true domain Unix.SOCK_STREAM 0 in
    match Unix.connect fd addr with
    | () -> Ok fd
    | exception
        Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN), _, _)
      when tries > 0 ->
        Unix.close fd;
        Thread.delay 0.05;
        go (tries - 1)
    | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        Error (Unix.error_message e)
  in
  go 100

(* --- per-worker state (summed after join; latencies land in shared
   arrays at distinct request-id indexes, so workers never race) --- *)

type wstat = {
  mutable sent : int;
  mutable answered : int;
  mutable admitted : int;
  mutable rejected : int;
  mutable cancel_ok : int;
  mutable errors : int;
  mutable disconnects : int;
  mutable fail : string option;
}

type shared = {
  cfg : config;
  reqs : Request.t array;
  admit_lat : float array;  (** seconds, indexed by request id; nan = no sample *)
  cancel_lat : float array;
  acks_mutex : Mutex.t;
  mutable stop : bool;  (** a worker failed hard; everyone winds down *)
}

let record_ack sh payload =
  match sh.cfg.acks with
  | None -> ()
  | Some oc ->
      Mutex.lock sh.acks_mutex;
      output_string oc payload;
      output_char oc '\n';
      Mutex.unlock sh.acks_mutex

(* One request-response exchange; the response payload is returned raw so
   the ack journal carries the exact wire bytes. *)
let exchange sh st ic oc req =
  st.sent <- st.sent + 1;
  let t0 = Unix.gettimeofday () in
  match Frame.output oc (Protocol.encode_request req) with
  | exception (Sys_error _ | Unix.Unix_error _) ->
      st.disconnects <- st.disconnects + 1;
      Error `Disconnect
  | () -> (
      match Frame.input ic with
      | Error `Eof ->
          st.disconnects <- st.disconnects + 1;
          Error `Disconnect
      | Error (`Frame e) -> Error (`Protocol (Frame.describe e))
      | Ok payload -> (
          let dt = Unix.gettimeofday () -. t0 in
          match Protocol.decode_response payload with
          | Error e -> Error (`Protocol (Protocol.describe_decode_error e))
          | Ok resp ->
              st.answered <- st.answered + 1;
              record_ack sh payload;
              Ok (resp, dt)))

let worker sh st w =
  match connect sh.cfg.target with
  | Error e ->
      st.disconnects <- st.disconnects + 1;
      if not sh.cfg.tolerate_disconnect then begin
        st.fail <- Some (Printf.sprintf "connect: %s" e);
        sh.stop <- true
      end
  | Ok fd ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let n = Array.length sh.reqs in
      let hard e =
        st.fail <- Some e;
        sh.stop <- true
      in
      let i = ref w in
      (try
         while !i < n && not sh.stop do
           let r = sh.reqs.(!i) in
           let admit =
             Protocol.Admit
               {
                 id = r.Request.id;
                 ingress = r.Request.ingress;
                 egress = r.Request.egress;
                 volume = r.Request.volume;
                 ts = r.Request.ts;
                 tf = r.Request.tf;
                 max_rate = r.Request.max_rate;
               }
           in
           (match exchange sh st ic oc admit with
           | Error `Disconnect ->
               if not sh.cfg.tolerate_disconnect then
                 hard "connection lost mid-run";
               i := n (* this client is done either way *)
           | Error (`Protocol e) -> hard ("protocol error: " ^ e)
           | Ok (resp, dt) -> (
               sh.admit_lat.(r.Request.id) <- dt;
               match resp with
               | Protocol.Admitted _ ->
                   st.admitted <- st.admitted + 1;
                   if
                     sh.cfg.cancel_every > 0
                     && st.admitted mod sh.cfg.cancel_every = 0
                   then begin
                     match
                       exchange sh st ic oc (Protocol.Cancel { id = r.Request.id })
                     with
                     | Error `Disconnect ->
                         if not sh.cfg.tolerate_disconnect then
                           hard "connection lost mid-run";
                         i := n
                     | Error (`Protocol e) -> hard ("protocol error: " ^ e)
                     | Ok (cresp, cdt) -> (
                         sh.cancel_lat.(r.Request.id) <- cdt;
                         match cresp with
                         | Protocol.Cancel_ok _ -> st.cancel_ok <- st.cancel_ok + 1
                         | Protocol.Cancel_failed _ -> ()
                         | Protocol.Error _ -> st.errors <- st.errors + 1
                         | _ -> hard "unexpected response to cancel")
                   end
               | Protocol.Rejected _ -> st.rejected <- st.rejected + 1
               | Protocol.Error _ -> st.errors <- st.errors + 1
               | _ -> hard "unexpected response to admit"));
           i := !i + sh.cfg.connections
         done
       with e -> hard (Printexc.to_string e));
      (try flush oc with Sys_error _ -> ());
      try Unix.close fd with Unix.Unix_error _ -> ()

(* --- aggregation --- *)

let finite_samples arrays =
  let out = ref [] in
  Array.iter
    (fun a ->
      Array.iter (fun v -> if Float.is_finite v then out := v :: !out) a)
    arrays;
  !out

let run ?(log = fun _ -> ()) cfg =
  if cfg.connections < 1 then Error "connections must be >= 1"
  else if cfg.requests < 1 then Error "requests must be >= 1"
  else begin
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let spec =
      Spec.make ~fabric:cfg.fabric ~count:cfg.requests
        ~flexibility:(Spec.Flexible { max_slack = 4.0 })
        ~mean_interarrival:cfg.mean_interarrival ()
    in
    let reqs = Array.of_list (Gen.generate (Rng.create ~seed:cfg.seed ()) spec) in
    log
      (Printf.sprintf "loadgen: %d requests (seed %Ld), %d connections -> %s"
         (Array.length reqs) cfg.seed cfg.connections
         (match cfg.target with
         | Daemon.Unix_socket p -> "unix:" ^ p
         | Daemon.Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p));
    let sh =
      {
        cfg;
        reqs;
        admit_lat = Array.make cfg.requests Float.nan;
        cancel_lat = Array.make cfg.requests Float.nan;
        acks_mutex = Mutex.create ();
        stop = false;
      }
    in
    let stats =
      Array.init cfg.connections (fun _ ->
          {
            sent = 0;
            answered = 0;
            admitted = 0;
            rejected = 0;
            cancel_ok = 0;
            errors = 0;
            disconnects = 0;
            fail = None;
          })
    in
    let t0 = Unix.gettimeofday () in
    let threads =
      Array.init cfg.connections (fun w ->
          Thread.create (fun () -> worker sh stats.(w) w) ())
    in
    Array.iter Thread.join threads;
    let wall = Unix.gettimeofday () -. t0 in
    Option.iter flush cfg.acks;
    match
      Array.fold_left
        (fun acc st -> match acc with Some _ -> acc | None -> st.fail)
        None stats
    with
    | Some e -> Error e
    | None ->
        let sum f = Array.fold_left (fun acc st -> acc + f st) 0 stats in
        let samples = Array.of_list (finite_samples [| sh.admit_lat; sh.cancel_lat |]) in
        Array.sort Float.compare samples;
        let count = Array.length samples in
        (* Nearest rank over the sorted samples: exact, so p99 <= max. *)
        let pct q =
          if count = 0 then 0. else samples.(Metrics.rank_of ~total:count q - 1) *. 1e6
        in
        let answered = sum (fun st -> st.answered) in
        Ok
          {
            sent = sum (fun st -> st.sent);
            answered;
            admitted = sum (fun st -> st.admitted);
            rejected = sum (fun st -> st.rejected);
            cancelled = sum (fun st -> st.cancel_ok);
            errors = sum (fun st -> st.errors);
            disconnects = sum (fun st -> st.disconnects);
            wall_s = wall;
            throughput = (if wall > 0. then float_of_int answered /. wall else 0.);
            lat_mean_us =
              (if count = 0 then 0.
               else Array.fold_left ( +. ) 0. samples *. 1e6 /. float_of_int count);
            lat_p50_us = pct 0.5;
            lat_p95_us = pct 0.95;
            lat_p99_us = pct 0.99;
            lat_max_us = pct 1.;
            }
  end

let shutdown target =
  match connect target with
  | Error e -> Error e
  | Ok fd ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      let result =
        match Frame.output oc (Protocol.encode_request Protocol.Shutdown) with
        | exception (Sys_error _ | Unix.Unix_error _) -> Error "connection lost"
        | () -> (
            match Frame.input ic with
            | Error `Eof -> Error "connection closed before the goodbye"
            | Error (`Frame e) -> Error (Frame.describe e)
            | Ok payload -> (
                match Protocol.decode_response payload with
                | Ok (Protocol.Goodbye { records }) -> Ok records
                | Ok _ -> Error "unexpected response to shutdown"
                | Error e -> Error (Protocol.describe_decode_error e)))
      in
      (try Unix.close fd with Unix.Unix_error _ -> ());
      result

let report_to_json (r : report) =
  Json.to_string
    (Json.Obj
       [
         ("benchmark", Json.Str "serve_loadgen");
         ("sent", Json.Num (float_of_int r.sent));
         ("answered", Json.Num (float_of_int r.answered));
         ("admitted", Json.Num (float_of_int r.admitted));
         ("rejected", Json.Num (float_of_int r.rejected));
         ("cancelled", Json.Num (float_of_int r.cancelled));
         ("errors", Json.Num (float_of_int r.errors));
         ("disconnects", Json.Num (float_of_int r.disconnects));
         ("wall_s", Json.Num r.wall_s);
         ("throughput_rps", Json.Num r.throughput);
         ("lat_mean_us", Json.Num r.lat_mean_us);
         ("lat_p50_us", Json.Num r.lat_p50_us);
         ("lat_p95_us", Json.Num r.lat_p95_us);
         ("lat_p99_us", Json.Num r.lat_p99_us);
         ("lat_max_us", Json.Num r.lat_max_us);
       ])

let pp_report ppf (r : report) =
  Format.fprintf ppf
    "@[<v>sent %d, answered %d (%d admitted, %d rejected, %d cancelled, %d \
     errors, %d disconnects)@,\
     wall %.3f s, %.0f req/s@,\
     latency µs: mean %.0f, p50 %.0f, p95 %.0f, p99 %.0f, max %.0f@]"
    r.sent r.answered r.admitted r.rejected r.cancelled r.errors r.disconnects
    r.wall_s r.throughput r.lat_mean_us r.lat_p50_us r.lat_p95_us r.lat_p99_us
    r.lat_max_us
