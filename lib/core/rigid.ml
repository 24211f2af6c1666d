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

let fcfs ?(ctx = Runtime.default) fabric requests =
  let obs = ctx.Runtime.obs in
  Request.check_routes "Rigid" fabric requests;
  let ledger = Ledger.create fabric in
  let seqs = if Obs.tracing obs then Emit.seq_table requests else Hashtbl.create 1 in
  let order = Flexible.arrival_order requests in
  let accepted = ref [] and rejected = ref [] in
  List.iter
    (fun (r : Request.t) ->
      if Obs.tracing obs then Emit.emit_arrival obs seqs r;
      let a = alloc_of r in
      if Ledger.fits ledger a then begin
        Ledger.reserve ledger a;
        Emit.emit_decision obs ~time:r.ts r (Types.Accepted a);
        accepted := a :: !accepted
      end
      else begin
        Emit.emit_decision obs ~time:r.ts ?blocked:(Emit.spike_port obs ledger a) r
          (Types.Rejected Types.Port_saturated);
        rejected := (r, Types.Port_saturated) :: !rejected
      end)
    order;
  { Types.all = requests; accepted = List.rev !accepted; rejected = List.rev !rejected }

(* Per-request scheduling state during the slice sweep of Algorithm 1. *)
type state = Alive of { held_before : bool } | Dead of Types.reason

let slots ?(ctx = Runtime.default) ~cost fabric requests =
  let obs = ctx.Runtime.obs in
  Request.check_routes "Rigid" fabric requests;
  let arr = Array.of_list requests in
  let n = Array.length arr in
  let state = Array.make n (Alive { held_before = false }) in
  let index_of_id = Hashtbl.create n in
  Array.iteri (fun i (r : Request.t) -> Hashtbl.replace index_of_id r.id i) arr;
  let breakpoints =
    Array.to_list arr
    |> List.concat_map (fun (r : Request.t) -> [ r.ts; r.tf ])
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
  let live = Live.create fabric in
  let rec sweep = function
    | t1 :: (t2 :: _ as rest) ->
        let active =
          Array.to_list arr
          |> List.filter (fun (r : Request.t) ->
                 r.ts <= t1 && r.tf >= t2
                 &&
                 match state.(Hashtbl.find index_of_id r.id) with
                 | Alive _ -> true
                 | Dead _ -> false)
        in
        let order =
          List.sort
            (fun (a : Request.t) (b : Request.t) ->
              match Float.compare (cost_of a ~t2) (cost_of b ~t2) with
              | 0 -> Int.compare a.id b.id
              | c -> c)
            active
        in
        Live.reset live;
        List.iter
          (fun (r : Request.t) ->
            let i = Hashtbl.find index_of_id r.id in
            if Live.try_grab live ~ingress:r.ingress ~egress:r.egress ~bw:(Request.min_rate r)
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
  let accepted = ref [] and rejected = ref [] in
  Array.iteri
    (fun i r ->
      match state.(i) with
      | Alive _ ->
          let a = alloc_of r in
          Emit.emit_decision obs ~time:sweep_end r (Types.Accepted a);
          accepted := a :: !accepted
      | Dead reason ->
          Emit.emit_decision obs ~time:sweep_end r (Types.Rejected reason);
          rejected := (r, reason) :: !rejected)
    arr;
  { Types.all = requests; accepted = List.rev !accepted; rejected = List.rev !rejected }

(* Head-of-line-blocking FIFO: the single scheduler thread serves requests
   strictly in arrival order.  [queue_time] is when the scheduler becomes
   free; a head request that does not fit at its start time keeps the
   scheduler busy until the bandwidth it wanted frees up (earliest instant
   both ports could have carried it), and only then is it dropped. *)
let fifo_blocking ?(ctx = Runtime.default) fabric requests =
  let obs = ctx.Runtime.obs in
  Request.check_routes "Rigid" fabric requests;
  let ledger = Ledger.create fabric in
  let seqs = if Obs.tracing obs then Emit.seq_table requests else Hashtbl.create 1 in
  let order = Flexible.arrival_order requests in
  (* Earliest instant >= from_ at which both ports have room for [bw]:
     usage is piecewise constant, so only [from_] and later breakpoints
     need checking.  [None] if the request could never fit (bw above a
     port capacity). *)
  let earliest_fit (r : Request.t) ~from_ =
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
  in
  let queue_time = ref neg_infinity in
  let accepted = ref [] and rejected = ref [] in
  (* Trace decisions are stamped at the request's arrival (its queue
     position), not at the instant the blocked head finally drops it, so
     the event stream stays chronological. *)
  List.iter
    (fun (r : Request.t) ->
      if Obs.tracing obs then Emit.emit_arrival obs seqs r;
      let service_time = Float.max !queue_time r.ts in
      if service_time > r.ts then begin
        (* The start passed while stuck behind the previous head. *)
        Emit.emit_decision obs ~time:r.ts r (Types.Rejected Types.Port_saturated);
        rejected := (r, Types.Port_saturated) :: !rejected
      end
      else begin
        let a = alloc_of r in
        if Ledger.fits ledger a then begin
          Ledger.reserve ledger a;
          Emit.emit_decision obs ~time:r.ts r (Types.Accepted a);
          accepted := a :: !accepted
        end
        else begin
          (* Head-of-line blocking: wait for the bandwidth, then drop. *)
          (match earliest_fit r ~from_:r.ts with
          | Some t -> queue_time := Float.max !queue_time t
          | None -> ());
          Emit.emit_decision obs ~time:r.ts ?blocked:(Emit.spike_port obs ledger a) r
            (Types.Rejected Types.Port_saturated);
          rejected := (r, Types.Port_saturated) :: !rejected
        end
      end)
    order;
  { Types.all = requests; accepted = List.rev !accepted; rejected = List.rev !rejected }

let run ?ctx kind fabric requests =
  match kind with
  | `Fcfs -> fcfs ?ctx fabric requests
  | `Fifo_blocking -> fifo_blocking ?ctx fabric requests
  | `Slots cost -> slots ?ctx ~cost fabric requests

let heuristic_name = function
  | `Fcfs -> "fcfs"
  | `Fifo_blocking -> "fifo-blocking"
  | `Slots cost -> cost_name cost
