(* The benchmark's load generator: one thread, non-blocking sockets, pipelined.

   Requests are numbered globally and sent in that order, request [i] on
   connection [i mod C], so the daemon sees the same interleaving on every
   run.  Replies on a connection come back in request order (the daemon
   guarantees it), so each connection keeps a FIFO of the request indexes
   it is waiting on.  Latencies are kept raw, one float per request; the
   percentiles are exact order statistics over them. *)

module Frame = Gridbw_serve.Frame
module Protocol = Gridbw_serve.Protocol
module Wire_frame = Gridbw_wire.Frame

type conn = {
  fd : Unix.file_descr;
  pending : string Queue.t;  (* framed requests not yet coalesced into [out] *)
  mutable out : string;  (* the chunk being written *)
  mutable out_off : int;
  mutable inbuf : string;  (* bytes read, not yet parsed into frames *)
  inflight : int Queue.t;  (* request indexes awaiting a reply, in send order *)
}

let now = Unix.gettimeofday

(* Connect to a Unix socket, retrying while the daemon is still starting;
   [None] once [timeout] seconds have passed. *)
let connect ?(timeout = 60.) path =
  let deadline = now () +. timeout in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
        Unix.set_nonblock fd;
        Some
          {
            fd;
            pending = Queue.create ();
            out = "";
            out_off = 0;
            inbuf = "";
            inflight = Queue.create ();
          }
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT | Unix.EAGAIN), _, _)
      ->
        Unix.close fd;
        if now () > deadline then None
        else begin
          Unix.sleepf 0.0005;
          go ()
        end
  in
  go ()

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Pull every complete reply frame out of [c.inbuf], text or binary. *)
let frames c =
  let s = c.inbuf in
  let n = String.length s in
  let rec go pos acc =
    if pos >= n then (pos, acc)
    else if Char.code s.[pos] = 0xB1 then
      match Wire_frame.decode s ~pos with
      | Gridbw_wire.Codec.Value ((_, payload), next) -> go next (payload :: acc)
      | Gridbw_wire.Codec.Incomplete -> (pos, acc)
      | Gridbw_wire.Codec.Corrupt msg -> failwith ("corrupt reply frame: " ^ msg)
    else
      match String.index_from_opt s pos ' ' with
      | None -> (pos, acc)
      | Some sp ->
          let len = int_of_string (String.sub s pos (sp - pos)) in
          let stop = sp + 1 + len in
          if stop >= n then (pos, acc)
          else if s.[stop] <> '\n' then failwith "reply frame lost its terminator"
          else go (stop + 1) (String.sub s (sp + 1) len :: acc)
  in
  let pos, acc = go 0 [] in
  c.inbuf <- String.sub s pos (n - pos);
  List.rev acc

type mode =
  | Open_loop of { rate : float }  (** request [k] of the phase is due at [k / rate] *)
  | Closed_loop of { window : int }  (** keep [window] requests outstanding *)

type phase = {
  first : int;  (** global index of the phase's first request *)
  sent : int;
  answered : int;
  wall_s : float;  (** first send until last reply *)
  lat_us : float array;  (** per answered request, from its due time *)
  lag_us : float array;  (** open loop: how late each request left the generator *)
  timed_out : int;  (** requests never answered before the drain deadline *)
  windows : (int * float) list;
      (** per probe window of the phase: replies answered, and the probe's
          reading over the window *)
}

let buf = Bytes.create 65536

(* Run one phase for [seconds]: requests [first], [first+1], ... are built
   by [request i] and framed in [format]; [on_reply i resp] sees every
   decoded reply.  Sending stops when the phase's time is up or the
   requests run out ([limit] is one past the last index); the phase then
   drains outstanding replies for at most [drain] seconds. *)
let run ~conns ~format ~mode ~seconds ~first ~limit ~request ~on_reply ?(drain = 60.)
    ?probe () =
  let nconn = Array.length conns in
  let t0 = now () in
  let t_end = t0 +. seconds in
  let cap = limit - first in
  let due = Array.make (max cap 1) 0. in
  let lat = Array.make (max cap 1) Float.nan in
  let lag = ref [] in
  let next = ref first in
  let outstanding = ref 0 in
  let answered = ref 0 in
  let last_reply = ref t0 in
  let enqueue i at =
    let c = conns.(i mod nconn) in
    due.(i - first) <- at;
    Queue.push (Frame.encode_as format (Protocol.encode_request (request i))) c.pending;
    Queue.push i c.inflight;
    incr outstanding;
    incr next
  in
  let sending () = !next < limit && now () < t_end in
  let feed_sends () =
    let t = now () in
    match mode with
    | Open_loop { rate } ->
        let rec go () =
          if !next < limit then begin
            let at = t0 +. (float_of_int (!next - first) /. rate) in
            if at <= t && at < t_end then begin
              lag := (t -. at) :: !lag;
              enqueue !next at;
              go ()
            end
          end
        in
        go ()
    | Closed_loop { window } ->
        while !next < limit && t < t_end && !outstanding < window do
          enqueue !next t
        done
  in
  let write c =
    if c.out_off >= String.length c.out && not (Queue.is_empty c.pending) then begin
      (* coalesce up to 64 KiB of queued frames into one write *)
      let b = Buffer.create 65536 in
      while (not (Queue.is_empty c.pending)) && Buffer.length b < 65536 do
        Buffer.add_string b (Queue.pop c.pending)
      done;
      c.out <- Buffer.contents b;
      c.out_off <- 0
    end;
    let len = String.length c.out - c.out_off in
    if len > 0 then
      match Unix.write_substring c.fd c.out c.out_off len with
      | n -> c.out_off <- c.out_off + n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  let has_output c = c.out_off < String.length c.out || not (Queue.is_empty c.pending) in
  let consume c =
    let t = now () in
    List.iter
      (fun payload ->
        let i = Queue.pop c.inflight in
        decr outstanding;
        incr answered;
        last_reply := t;
        lat.(i - first) <- (t -. due.(i - first)) *. 1e6;
        match Protocol.decode_response payload with
        | Ok resp -> on_reply i resp
        | Error e -> failwith ("undecodable reply: " ^ Protocol.describe_decode_error e))
      (frames c)
  in
  let rec read c =
    match Unix.read c.fd buf 0 (Bytes.length buf) with
    | 0 -> failwith "daemon closed the connection"
    | n ->
        c.inbuf <- c.inbuf ^ Bytes.sub_string buf 0 n;
        consume c;
        if n = Bytes.length buf then read c
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  in
  (* [probe = (interval, read)]: cut the phase into windows of at least
     [interval] seconds and record what [read] advanced by in each *)
  let windows = ref [] in
  let last_probe =
    ref (match probe with Some (_, read) -> (now (), !answered, read ()) | None -> (0., 0, 0.))
  in
  let sample () =
    match probe with
    | None -> ()
    | Some (interval, read) ->
        let t, n, r = !last_probe in
        let t' = now () in
        if t' -. t >= interval && !answered > n then begin
          let r' = read () in
          windows := (!answered - n, r' -. r) :: !windows;
          last_probe := (t', !answered, r')
        end
  in
  let drain_deadline () = Float.max t_end (now ()) +. drain in
  let deadline = ref infinity in
  let finished = ref false in
  while not !finished do
    feed_sends ();
    Array.iter write conns;
    let still_sending = sending () in
    if (not still_sending) && !deadline = infinity then deadline := drain_deadline ();
    if (not still_sending) && !outstanding = 0 then finished := true
    else if now () > !deadline then finished := true
    else begin
      let timeout =
        match mode with
        | Open_loop { rate } when still_sending ->
            let at = t0 +. (float_of_int (!next - first) /. rate) in
            Float.min 0.01 (Float.max 0. (at -. now ()))
        | _ -> 0.01
      in
      let rd = Array.to_list (Array.map (fun c -> c.fd) conns) in
      let wr =
        Array.to_list conns |> List.filter has_output |> List.map (fun c -> c.fd)
      in
      match Unix.select rd wr [] timeout with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | r, _, _ -> Array.iter (fun c -> if List.mem c.fd r then read c) conns
    end;
    sample ()
  done;
  let sent = !next - first in
  let lat_us =
    Array.of_list (List.filter Float.is_finite (Array.to_list (Array.sub lat 0 sent)))
  in
  {
    first;
    sent;
    answered = !answered;
    wall_s = !last_reply -. t0;
    lat_us;
    lag_us = Array.of_list (List.rev_map (fun l -> l *. 1e6) !lag);
    timed_out = !outstanding;
    windows = List.rev !windows;
  }

(* Exact order statistic: the smallest sample with at least [q] of the
   samples at or below it. *)
let percentile samples q =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else begin
    let s = Array.copy samples in
    Array.sort Float.compare s;
    let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) k))
  end

(* One blocking request/reply on a fresh connection (stats, shutdown). *)
let call path req =
  match connect ~timeout:10. path with
  | None -> Error "cannot connect"
  | Some c ->
      Unix.clear_nonblock c.fd;
      let ic = Unix.in_channel_of_descr c.fd and oc = Unix.out_channel_of_descr c.fd in
      let r =
        match Frame.output oc (Protocol.encode_request req) with
        | exception (Sys_error _ | Unix.Unix_error _) -> Error "connection lost"
        | () -> (
            match Frame.input ic with
            | Error _ -> Error "no reply"
            | Ok payload -> (
                match Protocol.decode_response payload with
                | Ok r -> Ok r
                | Error e -> Error (Protocol.describe_decode_error e)))
      in
      close c;
      r
