(* The traced run: replay a workload's seeded inputs in-process through the
   public functions of each layer, under {!Trace} spans.

   The serve pipeline is replayed the way the daemon's select loop runs
   it, one round of pipelined requests at a time: frame decode,
   protocol parse, the per-request counter, the admission decision (no
   store attached; its journal events are captured), the journal append
   of those events, the round's fsync, reply render and frame encode, and
   the session's reply queue.  Each round is the request the layer spans
   nest under.  The kernels, the WAL, snapshot and recovery, the
   reference audit and the sharded path are then timed on the same
   inputs, each as one long batch. *)

module Frame = Gridbw_serve.Frame
module Protocol = Gridbw_serve.Protocol
module Session = Gridbw_serve.Session
module Admission = Gridbw_serve.Admission
module Shard_admission = Gridbw_serve.Shard_admission
module Pool = Gridbw_serve.Pool
module Store = Gridbw_store.Store
module Wal = Gridbw_store.Wal
module Obs = Gridbw_obs.Obs
module Sink = Gridbw_obs.Sink
module Event = Gridbw_obs.Event
module Metrics = Gridbw_obs.Metrics
module Runtime = Gridbw_core.Runtime
module Online = Gridbw_core.Online
module Flexible = Gridbw_core.Flexible
module Policy = Gridbw_core.Policy
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Reference = Gridbw_check.Reference

(* Requests per round: the daemon's WAL batch, and the load generator's
   closed-loop window. *)
let round = 64

(* The WAL never fsyncs on its own here: the replay forces one commit per
   round, like the daemon's ack-after-fsync, and the recovery probes must
   not write at all. *)
let quiet_config =
  {
    Store.default_config with
    Store.wal = { Wal.default_config with Wal.batch = max_int; delay = 1e9 };
  }

let admit_of (r : Request.t) =
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

type setup = {
  fabric : Fabric.t;
  policy : Policy.t;
  format : Frame.format;
  ops : Protocol.request array;  (** the stream replayed through the serve layers *)
  store_dir : string;  (** where the rounds' journal events go, created afresh *)
}

type pipeline = {
  total_ns : float;  (** the rounds, end to end *)
  journal_ns : float;  (** of which journal appends and fsyncs (I/O-bound, and the noisiest) *)
  syncs : int;
  snapshots : int;
  snapshot_log : float * int;
      (** ns spent in [Store.log] in rounds that wrote a snapshot, and those
          rounds' ops: the snapshot stall's share of [store.log] *)
  events : Event.t list;  (** journal events of the ops, in order *)
}

(* Rounds of [round] ops through the serve layers.  With [Trace.enabled]
   off this is the untraced twin used to measure tracing overhead. *)
let pipeline s =
  let captured = ref [] in
  let sink = { Sink.emit = (fun e -> captured := e :: !captured); flush = ignore } in
  let adm = Admission.create ~obs:(Obs.create ~sink ()) ~policy:s.policy s.fabric in
  let store_obs = Obs.create () in
  Proc.rm_rf s.store_dir;
  let store = Store.create ~config:quiet_config ~obs:store_obs ~time:0. ~dir:s.store_dir s.fabric in
  let daemon_obs = Obs.create () in
  let session = Session.create ~id:0 ~peer:"replay" () in
  let dec = Frame.decoder () in
  let n = Array.length s.ops in
  let rounds = (n + round - 1) / round in
  let chunks =
    Array.init rounds (fun k ->
        let b = Buffer.create (round * 160) in
        for i = k * round to min n ((k + 1) * round) - 1 do
          Buffer.add_string b (Frame.encode_as s.format (Protocol.encode_request s.ops.(i)))
        done;
        Buffer.contents b)
  in
  let all_events = ref [] in
  let syncs = ref 0 in
  let journal_ns = ref 0L in
  let snapshot_log_ns = ref 0. and snapshot_log_ops = ref 0 in
  let snapshots_so_far () =
    Metrics.value (Metrics.counter (Obs.metrics store_obs) "store_snapshots_total")
  in
  let t0 = Trace.now_ns () in
  for k = 0 to rounds - 1 do
    let m = min n ((k + 1) * round) - (k * round) in
    Trace.span ~req:k ~calls:m "round" (fun rid ->
        let sp name f = Trace.span ~parent:rid ~req:k ~calls:m name (fun _ -> f ()) in
        let payloads =
          sp "frame.decode" (fun () ->
              Frame.feed dec chunks.(k);
              List.init m (fun _ ->
                  match Frame.next dec with
                  | Ok (Some p) -> p
                  | Ok None | Error _ -> failwith "replay: frame did not decode"))
        in
        let reqs =
          sp "protocol.parse" (fun () ->
              List.map
                (fun p ->
                  match Protocol.decode_request p with
                  | Ok r -> r
                  | Error _ -> failwith "replay: request did not parse")
                payloads)
        in
        sp "obs.count" (fun () ->
            List.iter (fun _ -> Obs.count daemon_obs "serve_requests_total") reqs);
        let resps = sp "admission.handle" (fun () -> List.map (Admission.handle adm) reqs) in
        let evs = List.rev !captured in
        captured := [];
        all_events := List.rev_append evs !all_events;
        let j0 = Trace.now_ns () and before = snapshots_so_far () in
        sp "store.log" (fun () -> List.iter (Store.log store) evs);
        if snapshots_so_far () > before then begin
          snapshot_log_ns := !snapshot_log_ns +. Int64.to_float (Int64.sub (Trace.now_ns ()) j0);
          snapshot_log_ops := !snapshot_log_ops + m
        end;
        if evs <> [] then begin
          incr syncs;
          sp "wal.sync" (fun () -> Store.flush store)
        end;
        journal_ns := Int64.add !journal_ns (Int64.sub (Trace.now_ns ()) j0);
        let bodies = sp "protocol.render" (fun () -> List.map Protocol.encode_response resps) in
        sp "frame.encode" (fun () -> List.iter (fun b -> ignore (Frame.encode_as s.format b)) bodies);
        sp "session.queue" (fun () ->
            List.iter (Session.queue session) resps;
            while Session.pending session do
              Session.wrote session (String.length (Session.out_chunk session))
            done))
  done;
  let total_ns = Trace.now_ns () |> fun t1 -> Int64.to_float (Int64.sub t1 t0) in
  Trace.span "store.snapshot" (fun _ -> Store.snapshot_now store);
  let snapshots = snapshots_so_far () in
  Store.close store;
  { total_ns; journal_ns = Int64.to_float !journal_ns; syncs = !syncs; snapshots;
    snapshot_log = (!snapshot_log_ns, !snapshot_log_ops); events = List.rev !all_events }

(* The paper's kernels over [admits], each decided in one timed batch. *)
let kernels ~fabric ~policy ~step admits =
  let n = List.length admits in
  let ordered = Flexible.arrival_order admits in
  Trace.span ~calls:n "flexible.greedy" (fun _ -> ignore (Flexible.greedy fabric policy admits));
  Trace.span ~calls:n "online.admit" (fun _ ->
      let ctl = Online.create fabric in
      List.iter
        (fun (r : Request.t) ->
          ignore (Online.try_admit ctl policy r ~at:(Float.max (Online.now ctl) r.Request.ts)))
        ordered);
  Trace.span ~calls:n "flexible.window" (fun _ ->
      ignore (Flexible.window fabric policy ~step admits));
  (* exact probe count, from the counters the WINDOW packer keeps *)
  let obs = Obs.create () in
  ignore (Flexible.window ~ctx:(Runtime.make ~obs ()) fabric policy ~step admits);
  let h = Metrics.histogram (Obs.metrics obs) "ledger_probes_per_decision" in
  Metrics.hist_sum h /. float_of_int (max 1 (Metrics.hist_count h))

let wal_append ~dir events =
  Proc.rm_rf dir;
  Proc.mkdir_p dir;
  let payloads = List.map Gridbw_obs.Event_codec.Binary.body_of events in
  let w = Wal.create ~config:quiet_config.Store.wal ~dir () in
  Trace.span ~calls:(max 1 (List.length payloads)) "wal.append" (fun _ ->
      List.iter (Wal.append w) payloads);
  Wal.close w

(* A journal holding [events], written through the store like the
   daemon writes it (a snapshot every 4 MiB of WAL). *)
let journal_of_events ~dir ~fabric events =
  Proc.rm_rf dir;
  let store = Store.create ~config:quiet_config ~time:0. ~dir fabric in
  List.iter (Store.log store) events;
  Store.close store

let recover ~dir =
  match Store.recover ~config:quiet_config ~dir () with
  | Ok r -> r
  | Error e -> failwith ("replay: recovery failed: " ^ e)

(* Recovery of [journal] (a copy of it), the reference audit the daemon
   runs on it, and the sharded engine's recovery with its audits. *)
let recovery ~fabric ~policy ~journal ~scratch =
  Proc.copy_dir journal scratch;
  let r = Trace.span "store.recover" (fun _ -> recover ~dir:scratch) in
  Trace.span "reference.audit" (fun _ ->
      match Reference.audit_allocations fabric (List.map snd r.Store.accepted) with
      | [] -> ()
      | v :: _ -> failwith ("replay: reference audit: " ^ Reference.describe v));
  Store.close r.Store.store;
  Proc.copy_dir journal scratch;
  let r = recover ~dir:scratch in
  let sa =
    Trace.span "shard_admission.recover" (fun _ ->
        match Shard_admission.of_recovered ~shards:2 ~policy r with
        | Ok sa -> sa
        | Error e -> failwith ("replay: sharded recovery: " ^ e))
  in
  Shard_admission.stop sa;
  Store.close r.Store.store

(* Submit/await round trips through the worker pool, a round at a time. *)
let pool_ops sa ops =
  let pool = Pool.create sa in
  let n = Array.length ops in
  let k = ref 0 in
  while !k < n do
    let m = min round (n - !k) in
    Trace.span ~req:(!k / round) ~calls:m "pool.op" (fun _ ->
        let slots = List.init m (fun j -> Pool.submit pool ~conn:(j mod 2) ops.(!k + j)) in
        List.iter (fun sl -> ignore (Pool.await sl)) slots);
    k := !k + m
  done;
  Pool.stop pool
