(* gridbw's benchmark: two workloads, end-to-end metrics with tracing
   off, per-layer metrics from a traced in-process replay.

   perfbench --workload admit-journaled|kernel-batch
             --seed N --seconds S --trace 0|1
             --gridbw PATH --work DIR [--commit C] [--fs F]

   The last line of standard output is the result object; every other
   line is a human-readable record of the run (context block, metrics,
   reconciliation).  Exit status 1 when the correctness gate fails. *)

module Frame = Gridbw_serve.Frame
module Protocol = Gridbw_serve.Protocol
module Store = Gridbw_store.Store
module Obs = Gridbw_obs.Obs
module Flexible = Gridbw_core.Flexible
module Online = Gridbw_core.Online
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Ledger = Gridbw_alloc.Ledger
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen
module Rng = Gridbw_prng.Rng
module Summary = Gridbw_metrics.Summary
module Validate = Gridbw_metrics.Validate

(* --- fixed parameters (each workload's why is in README.md) --- *)

let policy = Policy.Fraction_of_max 0.8 (* the daemon's default *)
let fabric = Fabric.paper_default ()

(* §5.3 flexible stream: Poisson arrivals every [mean_interarrival]
   seconds of virtual time, window slack up to 4 *)
let mean_interarrival = 14.0
let window_step = 400.
let pipeline_window = Layers.round (* outstanding requests in the closed loops *)

(* Each admit-journaled run is [episodes] identical episodes, each on a
   fresh daemon.  An episode sends a fixed number of requests per phase,
   sized from its share of --seconds, so the journal, its snapshots,
   memory and disk are the same from run to run; only the time taken
   varies. *)
let episodes = 3

(* The open loop's p50 is taken per window of this many samples and the
   median over windows is reported: the host's fsync hiccups land in a
   few windows.  Its p99 is taken over all the run's open-loop samples,
   three snapshot stalls together. *)
let latency_window = 1000

(* Daemon CPU per op is the median over windows of at least this many
   seconds of the closed-loop phases: robust to the host's bursts. *)
let cpu_window = 0.25

(* admit-journaled: one connection keeps the daemon's decision order equal
   to the stream order, so decisions repeat exactly between runs.  The
   open loop runs for half an episode's share, the last closed loop sends
   what [admit_nominal] per second would send in the other half. *)
let admit_rate = 2000. (* well below the rate at which one fsync per small round saturates *)
let admit_nominal = 9000.
let admit_conns = 1
let admit_spawns = 12 (* extra set-up samples: a fresh daemon starts in milliseconds *)

(* The daemon's first snapshot comes after 4 MiB of WAL, about 28k
   admits of this stream.  The first closed loop is sized so that it
   falls at 85% of the open loop: the stall then sets p99_us while most
   of the open loop sees the fsync-bound latency. *)
let first_snapshot_admits = 28_000

(* Recovery, its audits and the sharded engine's recovery are measured
   on a journal of at most this many admits: the audits grow faster than
   linearly with journal length.  It crosses one 4 MiB snapshot. *)
let recovery_admits = 40_000

(* kernel-batch *)
let kernel_requests = 50_000
let kernel_block = 64 (* decisions per latency sample *)
let kernel_setup_reps = 9

(* --- arguments --- *)

type workload = Admit_journaled | Kernel_batch

let workload_name = function
  | Admit_journaled -> "admit-journaled"
  | Kernel_batch -> "kernel-batch"

type args = {
  workload : workload;
  seed : int;
  seconds : float;
  trace : bool;
  gridbw : string;
  work : string;
  commit : string;
  fs : string;
}

let usage () =
  prerr_endline
    "usage: perfbench --workload admit-journaled|kernel-batch --seed N \
     --seconds S --trace 0|1 --gridbw PATH --work DIR [--commit C] [--fs F]";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.starts_with ~prefix:"--" k ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let opt k d = Option.value ~default:d (Hashtbl.find_opt tbl k) in
  let workload =
    match get "workload" with
    | "admit-journaled" -> Admit_journaled
    | "kernel-batch" -> Kernel_batch
    | _ -> usage ()
  in
  match (int_of_string_opt (get "seed"), float_of_string_opt (get "seconds"), get "trace") with
  | Some seed, Some seconds, ("0" | "1") when seconds > 0. ->
      {
        workload;
        seed;
        seconds;
        trace = get "trace" = "1";
        gridbw = get "gridbw";
        work = get "work";
        commit = opt "commit" "unknown";
        fs = opt "fs" "unknown";
      }
  | _ -> usage ()

(* --- shared helpers --- *)

let now = Unix.gettimeofday

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let stream ~seed ~count =
  Array.of_list
    (Gen.generate
       (Rng.create ~seed:(Int64.of_int seed) ())
       (Spec.paper_flexible ~count ~mean_interarrival ()))

(* Records printed as "key value unit" lines, then gathered into the
   result object. *)
let out_metrics : (string * float * string) list ref = ref []

let metric ?raw name value unit =
  (match raw with
  | None -> Printf.printf "metric %-28s %.6g %s\n%!" name value unit
  | Some r -> Printf.printf "metric %-28s %.6g %s (as measured: %.6g)\n%!" name value unit r);
  out_metrics := (name, value, unit) :: !out_metrics

let note fmt = Printf.ksprintf (fun s -> print_endline s) fmt

(* p99 did not hold still enough between runs on the development host
   to gate on (see README.md): it is printed on every run and reported
   as the per-layer latency.p99_us by the traced run. *)
let latency_p99 = ref Float.nan

let report_p99 ~raw value =
  Printf.printf "p99_us %.6g us (as measured: %.6g; not gated)\n%!" value raw;
  latency_p99 := value

(* --- context block --- *)

let nproc () =
  In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.starts_with ~prefix:"processor" l)
  |> List.length

let fsync_p50_us ?(n = 200) dir =
  let path = Filename.concat dir "fsync.probe" in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let block = Bytes.make 4096 'x' in
  let samples =
    List.init n (fun _ ->
        ignore (Unix.write fd block 0 4096);
        let t0 = now () in
        Unix.fsync fd;
        (now () -. t0) *. 1e6)
  in
  Unix.close fd;
  Unix.unlink path;
  median samples

(* The journal filesystem's counterpart of {!Calib.index}: its fsync
   p50 now against 100 us.  The write path's open-loop p50 waits on
   fsyncs far more than on CPU, so it is scaled by this one. *)
let io_index dir = fsync_p50_us ~n:50 dir /. 100.

(* A fixed small GREEDY run: host speed, independent of the workload. *)
let greedy_calibration_ns () =
  let reqs = Array.to_list (stream ~seed:1 ~count:2000) in
  let samples =
    List.init 30 (fun _ ->
        let t0 = Trace.now_ns () in
        ignore (Flexible.greedy fabric policy reqs);
        Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 2000.)
  in
  median samples

let context a ~extra =
  note
    "context nproc=%d fs=%s fsync_p50_us=%.1f greedy_calib_ns=%.1f host_index=%.3f ocaml=%s commit=%s"
    (nproc ()) a.fs (fsync_p50_us a.work) (greedy_calibration_ns ()) (Calib.index ())
    Sys.ocaml_version a.commit;
  note "context workload=%s seed=%d seconds=%g trace=%b policy=%s flush=ack-after-round-fsync,batch=64 %s"
    (workload_name a.workload) a.seed a.seconds a.trace (Policy.name policy) extra

(* --- the daemon --- *)

type daemon = { pid : int; sock : string; store : string }

(* Daemons not yet seen to exit: killed and reaped if the run dies. *)
let live = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

(* Spawn [gridbw serve] on [store]; the set-up time runs until it accepts
   a connection (recovery included). *)
let spawn a ~store =
  let sock = Filename.concat a.work "serve.sock" in
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let t0 = now () in
  let pid =
    Proc.spawn ~exe:a.gridbw
      ~args:[ "serve"; "--socket"; sock; "--store-dir"; store ]
      ~log:(Filename.concat a.work "serve.log")
  in
  live := pid :: !live;
  match Client.connect sock with
  | Some c -> ({ pid; sock; store }, c, now () -. t0)
  | None ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      failwith "daemon did not start"

let shutdown d =
  (match Client.call d.sock Protocol.Shutdown with
  | Ok (Protocol.Goodbye _) -> ()
  | _ -> (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  let clean = Proc.wait_exit d.pid in
  live := List.filter (fun p -> p <> d.pid) !live;
  if not clean then failwith "daemon did not exit cleanly"

(* [reps] fresh daemons, each shut down again straight away: more
   set-up samples for the median. *)
let spawn_only a ~reps ~prepare =
  List.init reps (fun _ ->
      let store = prepare () in
      let host = Calib.index ~reps:1 () in
      let d, c, dt = spawn a ~store in
      Client.close c;
      shutdown d;
      (dt, host))

let stats d =
  match Client.call d.sock Protocol.Stats with
  | Ok (Protocol.Stats_text text) ->
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun l ->
          match String.split_on_char ' ' l with
          | [ k; v ] when l <> "" && l.[0] <> '#' -> (
              match float_of_string_opt v with Some f -> Hashtbl.replace tbl k f | None -> ())
          | _ -> ())
        (String.split_on_char '\n' text);
      fun k -> Option.value ~default:0. (Hashtbl.find_opt tbl k)
  | Ok r -> failwith (Format.asprintf "stats verb: unexpected reply %a" Protocol.pp_response r)
  | Error e -> failwith ("stats verb: " ^ e)

(* --- admit-journaled: episodes --- *)

type episode = {
  host : float;  (** {!Calib.index} around the episode *)
  io : float;  (** {!io_index} before the open loop *)
  setup_s : float;
  closed_ops : int;  (** replies in the closed-loop phases *)
  closed_s : float;  (** their wall time *)
  p50_windows : float list;  (** p50 of each [latency_window] of the open loop *)
  open_lat : float array;  (** raw open-loop latencies, us *)
  cpu_us_per_op : float list;  (** per window of the closed-loop phases *)
  rss_mb : float;
  disk_mb : float;
  sent : int;
  timed_out : int;
  replies : Protocol.response option array;  (** by request index *)
  ops_per_fsync : float;
  snapshots : float;
  lag_ms : float;
}

(* The [q] order statistic of consecutive windows of [size] samples; the
   last window takes the remainder. *)
let windows lat ~size q =
  let n = Array.length lat in
  let nw = max 1 (n / size) in
  List.init nw (fun k ->
      let lo = k * size in
      let hi = if k = nw - 1 then n else lo + size in
      Client.percentile (Array.sub lat lo (hi - lo)) q)

(* One episode: a fresh daemon on a [prepare]d store, driven over
   [admit_conns] connections in text frames; [warm] requests closed loop
   with [pipeline_window] outstanding; [open_n] requests open loop at
   [admit_rate] per second, each timed from its due time; then [sat_n]
   requests closed loop again.  The closed loops give throughput and the
   daemon's CPU per op.  [sync] before the daemon starts and before the
   open loop, so dirty pages left by set-up do not land in their fsyncs. *)
let episode a ~prepare ~warm ~open_n ~sat_n ~request =
  let store = prepare () in
  ignore (Unix.system "sync");
  let h0 = Calib.index () in
  let d, c, setup_s = spawn a ~store in
  let conns =
    Array.append [| c |]
      (Array.init (admit_conns - 1) (fun _ -> Option.get (Client.connect d.sock)))
  in
  let format = Frame.Text and rate = admit_rate in
  let total = warm + open_n + sat_n in
  let replies = Array.make total None in
  let on_reply i r = replies.(i) <- Some r in
  let closed ~first ~limit =
    Client.run ~conns ~format ~mode:(Client.Closed_loop { window = pipeline_window })
      ~seconds:120. ~first ~limit ~request ~on_reply
      ~probe:(cpu_window, fun () -> Proc.cpu_ns d.pid)
      ()
  in
  let p0 = closed ~first:0 ~limit:warm in
  ignore (Unix.system "sync");
  let h1 = Calib.index () in
  let io = io_index a.work in
  let p1 =
    Client.run ~conns ~format ~mode:(Client.Open_loop { rate })
      ~seconds:(float_of_int open_n /. rate) ~first:warm ~limit:(warm + open_n) ~request
      ~on_reply ()
  in
  let h2 = Calib.index () in
  let p2 = closed ~first:(warm + open_n) ~limit:total in
  let h3 = Calib.index () in
  let st = stats d in
  let rss_mb = Proc.peak_rss_mib d.pid in
  Array.iter Client.close conns;
  shutdown d;
  let per_op (n, ns) = ns /. 1000. /. float_of_int n in
  let e =
    {
      host = median [ h0; h1; h2; h3 ];
      io;
      setup_s;
      closed_ops = p0.Client.answered + p2.Client.answered;
      closed_s = p0.Client.wall_s +. p2.Client.wall_s;
      p50_windows = windows p1.Client.lat_us ~size:latency_window 0.5;
      open_lat = p1.Client.lat_us;
      cpu_us_per_op = List.map per_op (p0.Client.windows @ p2.Client.windows);
      rss_mb;
      disk_mb = Proc.mib (Proc.dir_bytes store);
      sent = p0.Client.sent + p1.Client.sent + p2.Client.sent;
      timed_out = p0.Client.timed_out + p1.Client.timed_out + p2.Client.timed_out;
      replies;
      ops_per_fsync = st "serve_requests_total" /. Float.max 1. (st "serve_flushes_total");
      snapshots = st "store_snapshots_total";
      lag_ms = Client.percentile p1.Client.lag_us 0.99 /. 1000.;
    }
  in
  note
    "episode host_index=%.3f io_index=%.3f setup=%.4fs | open loop: %d at %g/s, p50 windows (us) %s, p99 %.0fus | closed loops: %d in %.3fs = %.0f/s, cpu=%.2fus/op (median of %d windows) | rss=%.1fMiB disk=%.1fMiB snapshots=%g"
    e.host e.io setup_s p1.Client.answered rate
    (String.concat " " (List.map (Printf.sprintf "%.0f") e.p50_windows))
    (Client.percentile e.open_lat 0.99)
    e.closed_ops e.closed_s
    (float_of_int e.closed_ops /. e.closed_s)
    (median e.cpu_us_per_op) (List.length e.cpu_us_per_op) rss_mb e.disk_mb e.snapshots;
  e

(* The timed metrics over the run's episodes: p50 as the median over
   open-loop windows, p99 over all episodes' open-loop samples together
   (each holds one snapshot stall), throughput of all
   closed-loop replies over their time, CPU per op as the median window.
   Times are scaled to the reference host speed by each episode's
   {!Calib.index}, p50 by its {!io_index} (the "as measured" value is
   printed beside). *)
let serve_metrics eps ~setups =
  let sum f = List.fold_left (fun acc e -> acc +. f e) 0. eps in
  let both name unit f = metric name (f false) unit ~raw:(f true) in
  let idx raw h = if raw then 1. else h in
  let per_window raw index windows =
    median (List.concat_map (fun e -> List.map (fun p -> p /. idx raw (index e)) (windows e)) eps)
  in
  both "setup_s" "s" (fun raw ->
      median
        (List.map (fun (s, h) -> s /. idx raw h) setups
        @ List.map (fun e -> e.setup_s /. idx raw e.host) eps));
  both "throughput_rps" "1/s" (fun raw ->
      sum (fun e -> float_of_int e.closed_ops) /. sum (fun e -> e.closed_s /. idx raw e.host));
  both "p50_us" "us" (fun raw -> per_window raw (fun e -> e.io) (fun e -> e.p50_windows));
  let p99 raw =
    Client.percentile
      (Array.concat (List.map (fun e -> Array.map (fun l -> l /. idx raw e.host) e.open_lat) eps))
      0.99
  in
  report_p99 (p99 false) ~raw:(p99 true);
  both "cpu_us_per_op" "us" (fun raw -> per_window raw (fun e -> e.host) (fun e -> e.cpu_us_per_op));
  metric "rss_mb" (median (List.map (fun e -> e.rss_mb) eps)) "MiB";
  metric "disk_mb" (median (List.map (fun e -> e.disk_mb) eps)) "MiB"

type served = {
  ops_per_fsync : float;
  snapshots : float;
  lag_ms : float;
}

let served_of (eps : episode list) =
  let med f = median (List.map f eps) in
  {
    ops_per_fsync = med (fun (e : episode) -> e.ops_per_fsync);
    snapshots = med (fun (e : episode) -> e.snapshots);
    lag_ms = med (fun (e : episode) -> e.lag_ms);
  }

let recover_copy a ~store =
  let dir = Filename.concat a.work "gate" in
  Proc.copy_dir store dir;
  match Store.recover ~dir () with
  | Ok r -> r
  | Error e -> failwith ("gate: recovery failed: " ^ e)

type replay_input = {
  setup : Layers.setup;
  admits : Request.t list;  (** what the kernels decide *)
  live : served option;
  cpu_us_per_op : float;
}

(* --- admit-journaled --- *)

let admit_journaled a =
  let share = a.seconds /. float_of_int episodes in
  let open_n = int_of_float (admit_rate *. share /. 2.) in
  let sat_n = int_of_float (admit_nominal *. share /. 2.) in
  let admit_warm = max 0 (first_snapshot_admits - (open_n * 85 / 100)) in
  let total = admit_warm + open_n + sat_n in
  let reqs = stream ~seed:a.seed ~count:total in
  context a
    ~extra:
      (Printf.sprintf
         "episodes=%d requests_per_episode=%d (closed loop %d, open loop %d at %g/s, closed loop %d) window=%d connections=%d frames=text"
         episodes total admit_warm open_n admit_rate sat_n pipeline_window admit_conns);
  let store = Filename.concat a.work "store" in
  let prepare () =
    Proc.rm_rf store;
    store
  in
  let spawns = spawn_only a ~reps:admit_spawns ~prepare in
  let bad = ref 0 and admitted = ref 0 and answered = ref 0 and within = ref true in
  let util = ref Float.nan in
  (* gate: every acked decision is in the recovered journal, exactly *)
  let gate (e : episode) =
    let r = recover_copy a ~store in
    let accepted = Hashtbl.create 4096 in
    List.iter
      (fun (_, al) -> Hashtbl.replace accepted al.Allocation.request.Request.id al)
      r.Store.accepted;
    admitted := 0;
    answered := 0;
    Array.iteri
      (fun i rep ->
        match rep with
        | None -> ()
        | Some rep -> (
            incr answered;
            let id = reqs.(i).Request.id in
            match rep with
            | Protocol.Admitted { id = id'; bw; sigma; tau } -> (
                incr admitted;
                match Hashtbl.find_opt accepted id with
                | Some al
                  when id = id' && al.Allocation.bw = bw && al.Allocation.sigma = sigma
                       && al.Allocation.tau = tau ->
                    ()
                | _ -> incr bad)
            | Protocol.Rejected { id = id'; _ } ->
                if id <> id' || (not (r.Store.decided id)) || Hashtbl.mem accepted id then incr bad
            | _ -> incr bad))
      e.replies;
    bad := !bad + (e.sent - !answered - e.timed_out);
    within := !within && Ledger.within_capacity (Store.ledger r.Store.store);
    util :=
      (Summary.compute fabric ~all:(Array.to_list reqs) ~accepted:(List.map snd r.Store.accepted))
        .Summary.utilization;
    note "gate recovered_records=%d accepted=%d acked=%d mismatched_so_far=%d ledger_within_capacity=%b"
      (Store.records r.Store.store) (Hashtbl.length accepted) !answered !bad !within;
    Store.close r.Store.store
  in
  let eps =
    List.init episodes (fun _ ->
        let e =
          episode a ~prepare ~warm:admit_warm ~open_n ~sat_n
            ~request:(fun i -> Layers.admit_of reqs.(i))
        in
        gate e;
        e)
  in
  serve_metrics eps ~setups:spawns;
  metric "accept_rate" (float_of_int !admitted /. float_of_int (max 1 !answered)) "ratio";
  metric "resource_util" !util "ratio";
  let attempted = List.fold_left (fun acc e -> acc + e.sent) 0 eps in
  let failed = List.fold_left (fun acc e -> acc + e.timed_out) !bad eps in
  let replay =
    {
      setup =
        {
          Layers.fabric;
          policy;
          format = Frame.Text;
          ops = Array.map Layers.admit_of reqs;
          store_dir = Filename.concat a.work "replay-store";
        };
      admits = Array.to_list reqs;
      live = Some (served_of eps);
      cpu_us_per_op = median (List.concat_map (fun (e : episode) -> e.cpu_us_per_op) eps);
    }
  in
  (attempted, failed, !within && failed = 0, replay)

(* --- kernel-batch --- *)

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let kernel_batch a =
  let gens =
    List.init kernel_setup_reps (fun _ ->
        let host = Calib.index ~reps:1 () in
        let t0 = now () in
        let r = stream ~seed:a.seed ~count:kernel_requests in
        (r, now () -. t0, host))
  in
  let reqs = (fun (r, _, _) -> r) (List.hd gens) in
  context a
    ~extra:
      (Printf.sprintf "requests=%d engines=greedy,online,window(%g) block=%d" kernel_requests
         window_step kernel_block);
  metric "setup_s"
    (median (List.map (fun (_, dt, h) -> dt /. h) gens))
    "s"
    ~raw:(median (List.map (fun (_, dt, _) -> dt) gens));
  let all = Array.to_list reqs in
  let ordered = Array.of_list (Flexible.arrival_order all) in
  let n = Array.length ordered in
  let blocks = ref [] in
  let rates = ref [] in
  let reps = ref 0 in
  (* each repetition is followed by a host-speed probe, which scales it *)
  let hosts = ref [] in
  let rep_blocks = ref [] in
  let greedy = ref None and window = ref None in
  let cpus = ref [] in
  let t_end = now () +. a.seconds in
  while !reps = 0 || now () < t_end do
    let cpu0 = cpu_now () in
    let t0 = Trace.now_ns () in
    greedy := Some (Flexible.greedy fabric policy all);
    let ctl = Online.create fabric in
    let i = ref 0 in
    while !i < n do
      let stop = min n (!i + kernel_block) in
      let b0 = Trace.now_ns () in
      for j = !i to stop - 1 do
        let r = ordered.(j) in
        ignore (Online.try_admit ctl policy r ~at:(Float.max (Online.now ctl) r.Request.ts))
      done;
      rep_blocks :=
        (Int64.to_float (Int64.sub (Trace.now_ns ()) b0) /. 1000. /. float_of_int (stop - !i))
        :: !rep_blocks;
      i := stop
    done;
    window := Some (Flexible.window fabric policy ~step:window_step all);
    let dt = Int64.to_float (Int64.sub (Trace.now_ns ()) t0) /. 1e9 in
    rates := (float_of_int (3 * n) /. dt) :: !rates;
    cpus := ((cpu_now () -. cpu0) *. 1e6 /. float_of_int (3 * n)) :: !cpus;
    hosts := Calib.index ~reps:1 () :: !hosts;
    blocks := List.map (fun b -> (b, List.hd !hosts)) !rep_blocks @ !blocks;
    rep_blocks := [];
    incr reps
  done;
  let decisions = 3 * n * !reps in
  let scaled f = List.map2 f !rates !hosts in
  let samples h = Array.of_list (List.map (fun (b, hb) -> b /. h hb) !blocks) in
  metric "throughput_rps" (median (scaled (fun r h -> r *. h))) "1/s" ~raw:(median !rates);
  metric "p50_us"
    (Client.percentile (samples Fun.id) 0.5)
    "us"
    ~raw:(Client.percentile (samples (fun _ -> 1.)) 0.5);
  report_p99
    (Client.percentile (samples Fun.id) 0.99)
    ~raw:(Client.percentile (samples (fun _ -> 1.)) 0.99);
  let cpu_us_per_op = median !cpus in
  metric "cpu_us_per_op" (median (List.map2 (fun c h -> c /. h) !cpus !hosts)) "us" ~raw:cpu_us_per_op;
  let greedy = Option.get !greedy and window = Option.get !window in
  metric "accept_rate" (Types.accept_rate greedy) "ratio";
  metric "resource_util"
    (Summary.compute fabric ~all ~accepted:greedy.Types.accepted).Summary.utilization "ratio";
  metric "rss_mb" (Proc.peak_rss_mib (Unix.getpid ())) "MiB";
  (* the WAL bytes these decisions encode to (no file is written) *)
  let b = Buffer.create (1 lsl 20) in
  ignore
    (Flexible.greedy
       ~ctx:(Gridbw_core.Runtime.make ~obs:(Obs.create ~sink:(Gridbw_obs.Sink.binary_buffer b) ()) ())
       fabric policy all);
  metric "disk_mb" (Proc.mib (Buffer.length b)) "MiB";
  (* gate, outside the timed region *)
  let valid res = Validate.check fabric res.Types.accepted = [] && Types.is_consistent res in
  let ok_g = valid greedy and ok_w = valid window in
  note "gate reps=%d decisions=%d latency_samples=%d host_index=%.3f greedy_valid=%b window_valid=%b window_accept_rate=%.4f"
    !reps decisions (List.length !blocks) (median !hosts) ok_g ok_w (Types.accept_rate window);
  let failed = (if ok_g then 0 else n) + if ok_w then 0 else n in
  let replay =
    {
      setup =
        {
          Layers.fabric;
          policy;
          format = Frame.Binary;
          ops = Array.map Layers.admit_of reqs;
          store_dir = Filename.concat a.work "replay-store";
        };
      admits = all;
      live = None;
      cpu_us_per_op;
    }
  in
  (decisions, failed, failed = 0, replay)

(* --- the traced run --- *)

let pool_cap = 20_000

let traced a (rp : replay_input) =
  let layer_metrics = ref [] in
  let lm name value unit = layer_metrics := (name, value, unit) :: !layer_metrics in
  (* the kernels first, then the untraced twin, each from a compacted heap *)
  Trace.reset ();
  Gc.compact ();
  let probes = Layers.kernels ~fabric ~policy ~step:window_step rp.admits in
  Trace.enabled := false;
  Gc.compact ();
  let plain_p = Layers.pipeline rp.setup in
  Trace.enabled := true;
  Gc.compact ();
  let traced_p = Layers.pipeline rp.setup in
  let n = Array.length rp.setup.Layers.ops in
  Layers.wal_append ~dir:(Filename.concat a.work "wal-probe") traced_p.Layers.events;
  let journal = Filename.concat a.work "journal" in
  Layers.journal_of_events ~dir:journal ~fabric
    (List.filteri (fun i _ -> i < 2 * recovery_admits) traced_p.Layers.events);
  Layers.recovery ~fabric ~policy ~journal ~scratch:(Filename.concat a.work "recovery");
  Layers.pool_ops
    (Gridbw_serve.Shard_admission.create ~shards:2 ~policy fabric)
    (Array.sub rp.setup.Layers.ops 0 (min n pool_cap));
  Trace.write (Filename.concat a.work (Printf.sprintf "spans-%s.jsonl" (workload_name a.workload)));
  let tbl = Trace.layers () in
  let get name = Hashtbl.find_opt tbl name in
  let per_call name scale =
    match get name with
    | Some l when l.Trace.calls > 0 -> l.Trace.self_ns /. float_of_int l.Trace.calls /. scale
    | _ -> Float.nan
  in
  let per_span name scale =
    match get name with
    | Some l when l.Trace.count > 0 -> l.Trace.self_ns /. float_of_int l.Trace.count /. scale
    | _ -> 0.
  in
  let decode = per_call "frame.decode" 1. and parse = per_call "protocol.parse" 1. in
  let render = per_call "protocol.render" 1. and encode = per_call "frame.encode" 1. in
  let queue_total = per_call "session.queue" 1. in
  let count = per_call "obs.count" 1. and handle = per_call "admission.handle" 1. in
  let log = per_call "store.log" 1. and pool_op = per_call "pool.op" 1000. in
  (* cpu_us_per_op is the median window, which a snapshot stall misses:
     reconcile against store.log without the rounds that snapshotted *)
  let log_steady =
    match get "store.log" with
    | Some l ->
        let ns, ops = traced_p.Layers.snapshot_log in
        (l.Trace.self_ns -. ns) /. float_of_int (max 1 (l.Trace.calls - ops))
    | None -> Float.nan
  in
  lm "frame.decode_ns" decode "ns";
  lm "frame.encode_ns" encode "ns";
  lm "protocol.parse_ns" parse "ns";
  lm "protocol.render_ns" render "ns";
  (* Session.queue renders and frames the reply itself: keep its own part *)
  lm "session.queue_ns" (queue_total -. render -. encode) "ns";
  lm "admission.handle_ns" handle "ns";
  lm "store.log_ns" log "ns";
  lm "store.log_steady_ns" log_steady "ns";
  lm "online.admit_ns" (per_call "online.admit" 1.) "ns";
  lm "flexible.greedy_ns" (per_call "flexible.greedy" 1.) "ns";
  lm "flexible.window_ns" (per_call "flexible.window" 1.) "ns";
  lm "ledger.probes_per_decision" probes "count";
  lm "wal.append_ns" (per_call "wal.append" 1.) "ns";
  lm "wal.sync_us" (per_span "wal.sync" 1000.) "us";
  lm "store.snapshot_ms" (per_span "store.snapshot" 1e6) "ms";
  lm "store.recover_s" (per_span "store.recover" 1e9) "s";
  lm "reference.audit_s" (per_span "reference.audit" 1e9) "s";
  lm "shard_admission.recover_s" (per_span "shard_admission.recover" 1e9) "s";
  lm "pool.op_us" pool_op "us";
  lm "obs.count_ns" count "ns";
  let live = rp.live in
  lm "daemon.ops_per_fsync"
    (match live with
    | Some s -> s.ops_per_fsync
    | None -> float_of_int n /. float_of_int (max 1 traced_p.Layers.syncs))
    "count";
  lm "store.snapshots"
    (match live with Some s -> s.snapshots | None -> float_of_int traced_p.Layers.snapshots)
    "count";
  lm "driver.lag_ms" (match live with Some s -> s.lag_ms | None -> 0.) "ms";
  lm "latency.p99_us" !latency_p99 "us";
  (* reconciliation: per-op layer costs against the measured CPU per op *)
  let layer_sum_us =
    match a.workload with
    | Admit_journaled -> (decode +. parse +. count +. handle +. log_steady +. queue_total) /. 1000.
    | Kernel_batch ->
        (per_call "flexible.greedy" 1. +. per_call "online.admit" 1. +. per_call "flexible.window" 1.)
        /. 3000.
  in
  lm "daemon.cpu_us_per_op" rp.cpu_us_per_op "us";
  lm "daemon.layer_sum_us" layer_sum_us "us";
  lm "daemon.unexplained_us" (rp.cpu_us_per_op -. layer_sum_us) "us";
  (* traced minus untraced replay, journal I/O left out of both *)
  let overhead_ns =
    (traced_p.Layers.total_ns -. traced_p.Layers.journal_ns
    -. (plain_p.Layers.total_ns -. plain_p.Layers.journal_ns))
    /. float_of_int (max 1 n)
  in
  lm "trace.overhead_ns" overhead_ns "ns";
  note "reconcile workload=%s cpu_us_per_op=%.3f layer_sum_us=%.3f unexplained_us=%.3f explained=%.1f%% trace_overhead_ns_per_op=%.1f"
    (workload_name a.workload) rp.cpu_us_per_op layer_sum_us (rp.cpu_us_per_op -. layer_sum_us)
    (100. *. layer_sum_us /. rp.cpu_us_per_op) overhead_ns;
  (* the benchmark's own check: every per-op layer saw every op once, and
     every layer span nests inside its request *)
  let per_op =
    [ "frame.decode"; "protocol.parse"; "obs.count"; "admission.handle"; "store.log";
      "protocol.render"; "frame.encode"; "session.queue" ]
  in
  let bad_counts =
    List.filter
      (fun name ->
        match Hashtbl.find_opt tbl name with
        | Some l -> l.Trace.calls <> n
        | None -> true)
      per_op
  in
  let nesting = Trace.nesting_errors () in
  note "trace-check ops=%d spans=%d call_count_mismatches=[%s] nesting_errors=%d" n
    (List.length (Trace.spans ())) (String.concat "," bad_counts) nesting;
  List.iter (fun (name, v, u) -> Printf.printf "layer %-28s %.6g %s\n" name v u) (List.rev !layer_metrics);
  (List.rev !layer_metrics, bad_counts = [] && nesting = 0)

(* --- main --- *)

let json_num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let () =
  let a = parse_args () in
  Proc.mkdir_p a.work;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let attempted, failed, gate_ok, replay =
    match a.workload with
    | Admit_journaled -> admit_journaled a
    | Kernel_batch -> kernel_batch a
  in
  note "error_ratio %.6g (%d failed of %d attempted)"
    (float_of_int failed /. float_of_int (max 1 attempted)) failed attempted;
  let metrics, trace_ok =
    if a.trace then traced a replay else (List.rev !out_metrics, true)
  in
  let correct = gate_ok && trace_ok in
  let fields =
    List.map
      (fun (name, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) u)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 attempted) failed (String.concat ", " fields);
  if not correct then exit 1
