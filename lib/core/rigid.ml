module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Ledger = Gridbw_alloc.Ledger
module Port = Gridbw_alloc.Port
module Live = Gridbw_alloc.Live
module Obs = Gridbw_obs.Obs

let sweep_span = Obs.span_key "rigid_sweep"

type cost_kind = Cumulated | Min_bw | Min_vol

let cost_name = function
  | Cumulated -> "cumulated-slots"
  | Min_bw -> "minbw-slots"
  | Min_vol -> "minvol-slots"

let alloc_of (r : Request.t) = Allocation.make ~request:r ~bw:(Request.min_rate r) ~sigma:r.ts

(* Earliest instant >= from_ at which both ports have room for [bw]:
   usage is piecewise constant, so only [from_] and later breakpoints
   need checking.  [None] if the request could never fit (bw above a
   port capacity). *)
let earliest_fit fabric ledger (r : Request.t) ~from_ =
  let bw = Request.min_rate r in
  if
    bw > Fabric.ingress_capacity fabric r.ingress *. (1. +. 1e-9)
    || bw > Fabric.egress_capacity fabric r.egress *. (1. +. 1e-9)
  then None
  else
    let fits_at t =
      Ledger.usage_at ledger (Port.Ingress r.ingress) t +. bw
      <= Fabric.ingress_capacity fabric r.ingress *. (1. +. 1e-9)
      && Ledger.usage_at ledger (Port.Egress r.egress) t +. bw
         <= Fabric.egress_capacity fabric r.egress *. (1. +. 1e-9)
    in
    let later port = Ledger.breakpoints_over ledger port ~from_ ~until:infinity in
    let candidates =
      from_
      :: List.sort_uniq Float.compare
           (later (Port.Ingress r.ingress) @ later (Port.Egress r.egress))
    in
    List.find_opt fits_at candidates

(* The arrival loop behind FCFS and the head-of-line-blocking FIFO: the
   single scheduler thread serves requests strictly in arrival order.
   [queue_time] is when the scheduler becomes free.  With [blocking], a
   head request that does not fit at its start time keeps the scheduler
   busy until the bandwidth it wanted frees up, and only then is it
   dropped; without it [queue_time] never advances, so a rejection costs
   the queue nothing (FCFS).  Trace decisions are stamped at the
   request's arrival (its queue position), not at the instant the blocked
   head finally drops it, so the event stream stays chronological. *)
let arrivals ~blocking (ctx : Runtime.ctx) fabric requests =
  let obs = ctx.Runtime.obs in
  Request.check_routes "Rigid" fabric requests;
  let ledger = Ledger.create fabric in
  let seqs = if Obs.tracing obs then Emit.seq_table requests else Hashtbl.create 1 in
  let queue_time = ref neg_infinity in
  let log = Types.Log.create () in
  List.iter
    (fun (r : Request.t) ->
      if Obs.tracing obs then Emit.emit_arrival obs seqs r;
      if !queue_time > r.ts then begin
        (* The start passed while stuck behind the previous head. *)
        Emit.emit_decision obs ~time:r.ts r (Types.Rejected Types.Port_saturated);
        Types.Log.add log r (Types.Rejected Types.Port_saturated)
      end
      else begin
        let a = alloc_of r in
        if Ledger.fits ledger a then begin
          Ledger.reserve ledger a;
          let d = Types.Accepted a in
          Emit.emit_decision obs ~time:r.ts r d;
          Types.Log.add log r d
        end
        else begin
          (* Head-of-line blocking: wait for the bandwidth, then drop. *)
          (if blocking then
             match earliest_fit fabric ledger r ~from_:r.ts with
             | Some t -> queue_time := Float.max !queue_time t
             | None -> ());
          Emit.emit_decision obs ~time:r.ts ?blocked:(Emit.spike_port obs ledger a) r
            (Types.Rejected Types.Port_saturated);
          Types.Log.add log r (Types.Rejected Types.Port_saturated)
        end
      end)
    (Flexible.arrival_order requests);
  Types.Log.result log requests

let fcfs ?(ctx = Runtime.default) fabric requests = arrivals ~blocking:false ctx fabric requests

let fifo_blocking ?(ctx = Runtime.default) fabric requests =
  arrivals ~blocking:true ctx fabric requests

(* Per-request scheduling state during the slice sweep of Algorithm 1. *)
type state = Alive of { held_before : bool } | Dead of Types.reason

(* Algorithm 1 as one sweep over the slice boundaries.  Requests are
   named by their position in the input, so two requests sharing an id
   keep separate states.  The live set holds the positions active in the
   current slice: a request joins once the slice start reaches its [ts]
   and leaves for good once the slice end passes its [tf] or it dies. *)
let slots ?(ctx = Runtime.default) ~cost fabric requests =
  let obs = ctx.Runtime.obs in
  Request.check_routes "Rigid" fabric requests;
  let arr = Array.of_list requests in
  let n = Array.length arr in
  let state = Array.make n (Alive { held_before = false }) in
  let breakpoints =
    List.concat_map (fun (r : Request.t) -> [ r.ts; r.tf ]) requests
    |> List.sort_uniq Float.compare
  in
  let cost_of (r : Request.t) ~t2 =
    match cost with
    | Min_bw -> Request.min_rate r
    | Min_vol -> r.volume
    | Cumulated ->
        let priority = (t2 -. r.ts) /. (r.tf -. r.ts) in
        let b_min =
          Float.min (Fabric.ingress_capacity fabric r.ingress)
            (Fabric.egress_capacity fabric r.egress)
        in
        Request.min_rate r /. (b_min *. priority)
  in
  let key = Array.make n 0. in
  (* (cost, id), then input position: requests sharing an id and a cost
     keep their input order, whatever slice they joined in. *)
  let by_key i j =
    match Float.compare key.(i) key.(j) with
    | 0 -> (
        match Int.compare arr.(i).Request.id arr.(j).Request.id with
        | 0 -> Int.compare i j
        | c -> c)
    | c -> c
  in
  let by_ts i j = Float.compare arr.(i).Request.ts arr.(j).Request.ts in
  let pending = ref (List.sort by_ts (List.init n Fun.id)) in
  let live = ref [||] in
  let counters = Live.create fabric in
  let rec sweep = function
    | t1 :: (t2 :: _ as rest) ->
        let rec join acc =
          match !pending with
          | i :: tl when arr.(i).Request.ts <= t1 ->
              pending := tl;
              join (i :: acc)
          | _ -> acc
        in
        let lasts i =
          arr.(i).Request.tf >= t2 && match state.(i) with Alive _ -> true | Dead _ -> false
        in
        let order = Array.of_list (List.filter lasts (join (Array.to_list !live))) in
        Array.iter (fun i -> key.(i) <- cost_of arr.(i) ~t2) order;
        Array.stable_sort by_key order;
        live := order;
        Live.reset counters;
        Array.iter
          (fun i ->
            let r = arr.(i) in
            if Live.try_grab counters ~ingress:r.ingress ~egress:r.egress ~bw:(Request.min_rate r)
            then state.(i) <- Alive { held_before = true }
            else
              let reason =
                match state.(i) with
                | Alive { held_before = true } -> Types.Revoked
                | Alive { held_before = false } | Dead _ -> Types.Port_saturated
              in
              state.(i) <- Dead reason)
          order;
        sweep rest
    | [ _ ] | [] -> ()
  in
  Obs.span obs sweep_span (fun () -> sweep breakpoints);
  (* Outcomes are only final once the whole sweep has run, so decisions
     are stamped at the last slice boundary, after the batch arrivals. *)
  (if Obs.tracing obs then begin
     let seqs = Emit.seq_table requests in
     List.iter (fun r -> Emit.emit_arrival obs seqs r) (Flexible.arrival_order requests)
   end);
  let sweep_end = List.fold_left (fun acc t -> Float.max acc t) 0.0 breakpoints in
  let log = Types.Log.create () in
  Array.iteri
    (fun i r ->
      let d =
        match state.(i) with Alive _ -> Types.Accepted (alloc_of r) | Dead reason -> Types.Rejected reason
      in
      Emit.emit_decision obs ~time:sweep_end r d;
      Types.Log.add log r d)
    arr;
  Types.Log.result log requests

let run ?ctx kind fabric requests =
  match kind with
  | `Fcfs -> fcfs ?ctx fabric requests
  | `Fifo_blocking -> fifo_blocking ?ctx fabric requests
  | `Slots cost -> slots ?ctx ~cost fabric requests

let heuristic_name = function
  | `Fcfs -> "fcfs"
  | `Fifo_blocking -> "fifo-blocking"
  | `Slots cost -> cost_name cost
