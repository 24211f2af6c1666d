module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Ledger = Gridbw_alloc.Ledger
module Port = Gridbw_alloc.Port
module Engine = Gridbw_sim.Engine
module Online = Gridbw_core.Online
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Flexible = Gridbw_core.Flexible
module Plane = Gridbw_control.Plane
module Resilience = Gridbw_metrics.Resilience
module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event
module Emit = Gridbw_core.Emit

let shed_span = Obs.span_key "shed"

type admission = Greedy | Window of float
type recovery = No_recovery | Resubmit

type config = {
  policy : Policy.t;
  admission : admission;
  victim : Victim.t;
  recovery : recovery;
  control : Plane.config;
  check_invariants : bool;
}

let default_config ?(policy = Policy.Min_rate) ?(admission = Greedy) () =
  {
    policy;
    admission;
    victim = Victim.Smallest_residual;
    recovery = Resubmit;
    control = Plane.default_config policy;
    check_invariants = false;
  }

let admission_name = function
  | Greedy -> "greedy"
  | Window step -> Printf.sprintf "window(%g)" step

type service = { s_ingress : int; s_egress : int; s_bw : float; s_from : float; s_until : float }

type report = {
  result : Types.result;
  outcomes : Resilience.outcome list;
  stats : Resilience.t;
  services : service list;
  span : float;
}

(* A fault event names a port by side + index; the allocation layer's
   port-keyed API takes the sum type. *)
let port_of side port =
  match (side : Fault.side) with
  | Fault.Ingress -> Port.Ingress port
  | Fault.Egress -> Port.Egress port

(* A port at nominal capacity never hits zero (Fabric requires positive
   capacities), so a full outage retains this sliver instead. *)
let outage_floor = 1e-6
let tol = 1e-9

(* Per-request transfer history, mutated as the simulation unfolds. *)
type tlog = {
  req : Request.t;
  mutable admitted : bool;
  mutable cur : Allocation.t option;  (* the live allocation, if any *)
  mutable delivered : float;  (* MB transferred so far across allocations *)
  mutable finished_at : float option;
  mutable preemptions : int;
  mutable aborted : bool;
  mutable violation : float;
  mutable down_since : float option;  (* preempted, awaiting renegotiation *)
  mutable services : service list;
}

let new_log req =
  {
    req;
    admitted = false;
    cur = None;
    delivered = 0.0;
    finished_at = None;
    preemptions = 0;
    aborted = false;
    violation = 0.0;
    down_since = None;
    services = [];
  }

let outcome_of lg =
  {
    Resilience.request = lg.req;
    admitted = lg.admitted;
    aborted = lg.aborted;
    delivered = lg.delivered;
    finished_at = lg.finished_at;
    preemptions = lg.preemptions;
    violation_time = lg.violation;
  }

let span_of requests =
  match requests with
  | [] -> 0.0
  | (first : Request.t) :: _ ->
      let t0, t1 =
        List.fold_left
          (fun (t0, t1) (r : Request.t) -> (Float.min t0 r.ts, Float.max t1 r.tf))
          (first.ts, first.tf) requests
      in
      t1 -. t0

(* Mutable capacity state: nominal capacities plus the currently applied
   degradation, rebuilt into a Fabric.t on every revision. *)
type caps = { base : Fabric.t; cur_in : float array; cur_out : float array }

let caps_of fabric =
  {
    base = fabric;
    cur_in = Array.init (Fabric.ingress_count fabric) (Fabric.ingress_capacity fabric);
    cur_out = Array.init (Fabric.egress_count fabric) (Fabric.egress_capacity fabric);
  }

let current caps = function Fault.Ingress -> caps.cur_in | Fault.Egress -> caps.cur_out

(* Set a port to [factor] of its nominal capacity ([1.] restores it). *)
let revise caps side port ~factor =
  let nominal =
    match side with
    | Fault.Ingress -> Fabric.ingress_capacity caps.base port
    | Fault.Egress -> Fabric.egress_capacity caps.base port
  in
  (current caps side).(port) <- Float.max (factor *. nominal) outage_floor;
  Fabric.make ~ingress:caps.cur_in ~egress:caps.cur_out

let event_side = function Fault.Ingress -> Event.Ingress | Fault.Egress -> Event.Egress

(* Capacity-revision trace record, emitted whenever a degrade or restore
   rewrites a port's capacity. *)
let emit_capacity obs ~time side port caps =
  if obs.Obs.enabled then begin
    Obs.count obs "capacity_revisions_total";
    Obs.event obs (fun () ->
        Event.Capacity
          { time; side = event_side side; port; capacity = (current caps side).(port) })
  end

let emit_shed obs ~time side port ~excess ~victims =
  if obs.Obs.enabled then begin
    Obs.count_n obs "shed_victims_total" victims;
    Obs.event obs (fun () ->
        Event.Shed { time; side = event_side side; port; excess; victims })
  end

let within_current used cap = used <= (cap *. (1. +. tol)) +. tol

let on_port side port (a : Allocation.t) =
  match side with
  | Fault.Ingress -> a.Allocation.request.Request.ingress = port
  | Fault.Egress -> a.Allocation.request.Request.egress = port

(* Remaining MB of the request if its live allocation were cut at [now]. *)
let residual_if_cut lg (a : Allocation.t) ~now =
  let served = Float.max 0. (Float.min now a.Allocation.tau -. a.Allocation.sigma) in
  Float.max 0. (lg.req.Request.volume -. lg.delivered -. (a.Allocation.bw *. served))

let validate_inputs fabric cfg events requests =
  Policy.validate cfg.policy;
  (match cfg.admission with
  | Greedy -> ()
  | Window step ->
      if step <= 0. || not (Float.is_finite step) then
        invalid_arg "Injector.run: window step must be positive and finite");
  if Plane.renegotiation_delay cfg.control < 0. then
    invalid_arg "Injector.run: negative renegotiation delay";
  Fault.validate fabric events;
  Request.check_routes "Injector.run" fabric requests

(* ---------- the replay both modes share ---------- *)

(* The booking substrate a mode admits into: the [Online] counters
   (GREEDY) or a [Ledger] (WINDOW). *)
type substrate = {
  usage : Port.t -> float -> float;  (* bandwidth booked through a port at an instant *)
  set_fabric : Fabric.t -> unit;
  release : Allocation.t -> unit;
}

(* What else a mode decides for itself. *)
type mode = {
  overload :
    Fault.side -> int -> now:float -> until:float -> (float * (Allocation.t -> bool)) option;
      (* how far a degraded port is over its capacity, and which live
         allocations that overload involves; [None] when it fits *)
  readmit : tlog -> unit;  (* re-admit a preempted transfer's residual *)
}

(* Everything the two modes share: the engine, the capacities, the
   per-request logs, the live allocations and the waiting residuals. *)
type t = {
  cfg : config;
  obs : Obs.ctx;
  engine : Engine.t;
  caps : caps;
  reneg : float;
  sub : substrate;
  logs : (int, tlog) Hashtbl.t;
  seqs : (int, int) Hashtbl.t;  (* input positions, for arrival records *)
  mutable live : Allocation.t list;  (* held allocations, most recent first *)
  mutable waiting : tlog list;
      (* residuals rejected while a port was degraded; they re-signal when
         a degraded port is restored *)
  mutable decisions : (Request.t * Types.decision) list;
}

let create ~obs fabric cfg sub requests =
  let logs = Hashtbl.create (List.length requests) in
  List.iter (fun (r : Request.t) -> Hashtbl.replace logs r.id (new_log r)) requests;
  {
    cfg;
    obs;
    engine = Engine.create ~obs ();
    caps = caps_of fabric;
    reneg = Plane.renegotiation_delay cfg.control;
    sub;
    logs;
    seqs = (if Obs.tracing obs then Emit.seq_table requests else Hashtbl.create 1);
    live = [];
    waiting = [];
    decisions = [];
  }

let now t = Engine.now t.engine
let log_of t (r : Request.t) = Hashtbl.find t.logs r.Request.id

let check_invariants t =
  let check port cap =
    let used = t.sub.usage port (now t) in
    if not (within_current used cap) then
      failwith
        (Format.asprintf "Injector: %a over current capacity at %g (%g > %g)" Port.pp port (now t)
           used cap)
  in
  Array.iteri (fun i cap -> check (Port.Ingress i) cap) t.caps.cur_in;
  Array.iteri (fun e cap -> check (Port.Egress e) cap) t.caps.cur_out

let sched t time handler =
  Engine.schedule t.engine ~time (fun _ ->
      handler ();
      if t.cfg.check_invariants then check_invariants t)

(* Credit the service [a] delivered up to [until]. *)
let credit lg (a : Allocation.t) ~until =
  let served = Float.max 0. (Float.min until a.Allocation.tau -. a.Allocation.sigma) in
  if served > 0. then begin
    lg.delivered <- lg.delivered +. (a.Allocation.bw *. served);
    lg.services <-
      {
        s_ingress = a.Allocation.request.Request.ingress;
        s_egress = a.Allocation.request.Request.egress;
        s_bw = a.Allocation.bw;
        s_from = a.Allocation.sigma;
        s_until = until;
      }
      :: lg.services
  end

let unregister t a = t.live <- List.filter (fun b -> b != a) t.live

let finish t lg (a : Allocation.t) =
  lg.cur <- None;
  unregister t a;
  credit lg a ~until:a.Allocation.tau;
  lg.finished_at <- Some a.Allocation.tau

let register t lg (a : Allocation.t) =
  lg.admitted <- true;
  if a.Allocation.tau <= now t then
    (* Whole transfer fits inside the already-elapsed part of a WINDOW
       batch interval (retroactive booking, as in Flexible.window). *)
    finish t lg a
  else begin
    lg.cur <- Some a;
    t.live <- a :: t.live;
    sched t a.Allocation.tau (fun () ->
        match lg.cur with Some b when b == a -> finish t lg a | _ -> ())
  end

(* An arrival's admission decision. *)
let decide t r d =
  t.decisions <- (r, d) :: t.decisions;
  match d with Types.Accepted a -> register t (log_of t r) a | Types.Rejected _ -> ()

(* Preempted, not aborted, and not yet re-admitted or given up. *)
let alive lg = (not lg.aborted) && lg.down_since <> None

(* The guarantee is broken from the preemption to the deadline. *)
let give_up lg =
  lg.violation <- lg.violation +. Float.max 0. (lg.req.Request.tf -. Option.get lg.down_since);
  lg.down_since <- None

(* The residual request renegotiated at [at] (volume = remaining MB, same
   deadline and rate cap); [None] when the deadline is out of reach even
   at the rate cap. *)
let residual_request lg ~at =
  let r = lg.req in
  let residual = r.Request.volume -. lg.delivered in
  if at >= r.Request.tf || residual /. (r.Request.tf -. at) > r.Request.max_rate *. (1. +. tol)
  then None
  else
    Some
      (Request.make ~id:r.Request.id ~ingress:r.Request.ingress ~egress:r.Request.egress
         ~volume:residual ~ts:at ~tf:r.Request.tf ~max_rate:r.Request.max_rate)

(* A residual's admission decision. *)
let redecide t lg d =
  match d with
  | Types.Accepted a ->
      lg.violation <- lg.violation +. Float.max 0. (a.Allocation.sigma -. Option.get lg.down_since);
      lg.down_since <- None;
      register t lg a
  | Types.Rejected _ -> t.waiting <- lg :: t.waiting

(* Schedule the fault script after the mode's arrivals — at equal
   timestamps arrivals decide before faults strike, both before any
   renegotiation scheduled then — and run the engine to completion. *)
let play t m events =
  let preempt lg (a : Allocation.t) ~recover =
    let now = now t in
    t.sub.release a;
    unregister t a;
    lg.cur <- None;
    lg.preemptions <- lg.preemptions + 1;
    if t.obs.Obs.enabled then begin
      Obs.count t.obs "preempted_total";
      Obs.event t.obs (fun () ->
          Event.Preempt
            {
              time = now;
              id = a.Allocation.request.Request.id;
              bw = a.Allocation.bw;
              shard = None;
            })
    end;
    credit lg a ~until:now;
    if lg.req.Request.volume -. lg.delivered <= tol *. lg.req.Request.volume then
      lg.finished_at <- Some now
    else if recover then begin
      lg.down_since <- Some now;
      match t.cfg.recovery with No_recovery -> give_up lg | Resubmit -> m.readmit lg
    end
  in
  (* Shed rounds until the degraded port fits, or no candidate is left. *)
  let shed side port ~until =
    Obs.span t.obs shed_span @@ fun () ->
    let now = now t in
    let rec round victims excess0 =
      match m.overload side port ~now ~until with
      | None -> (victims, excess0)
      | Some (excess, involved) -> (
          let candidates =
            List.filter
              (fun (a : Allocation.t) ->
                on_port side port a && involved a && a.Allocation.tau > now)
              t.live
            |> List.map (fun (a : Allocation.t) -> (a, residual_if_cut (log_of t a.request) a ~now))
          in
          match Victim.select t.cfg.victim ~need:excess candidates with
          | [] -> (victims, excess0)
          | vs ->
              List.iter (fun (a : Allocation.t) -> preempt (log_of t a.request) a ~recover:true) vs;
              round (victims + List.length vs) (if victims = 0 then excess else excess0))
    in
    match round 0 0. with
    | 0, _ -> ()
    | victims, excess -> emit_shed t.obs ~time:now side port ~excess ~victims
  in
  let set_capacity side port ~factor =
    t.sub.set_fabric (revise t.caps side port ~factor);
    emit_capacity t.obs ~time:(now t) side port t.caps
  in
  let restore side port =
    set_capacity side port ~factor:1.;
    (* Only live waiters re-signal: an aborted or given-up one has no
       residual left to re-admit. *)
    let ws = List.filter alive t.waiting in
    t.waiting <- [];
    List.iter m.readmit (List.sort (fun a b -> Int.compare a.req.Request.id b.req.Request.id) ws)
  in
  (* An end host dies ([abort]) or an operator revokes a transfer. *)
  let strike request_id ~abort =
    match Hashtbl.find_opt t.logs request_id with
    | Some lg when lg.admitted && lg.finished_at = None ->
        Option.iter (fun a -> preempt lg a ~recover:(not abort)) lg.cur;
        if abort then begin
          lg.aborted <- true;
          lg.down_since <- None
        end
    | _ -> ()
  in
  List.iter
    (function
      | Fault.Degrade { side; port; factor; from_; until } ->
          sched t from_ (fun () ->
              set_capacity side port ~factor;
              shed side port ~until);
          sched t until (fun () -> restore side port)
      | Fault.Abort { request_id; at } -> sched t at (fun () -> strike request_id ~abort:true)
      | Fault.Preempt { request_id; at } -> sched t at (fun () -> strike request_id ~abort:false))
    events;
  Engine.run t.engine

(* ---------- GREEDY admission under faults ---------- *)

(* Identical to Flexible.greedy when the script is empty: arrivals are
   processed through the same Online controller in the same order, so the
   decision stream — and therefore every summary metric — is bit-identical.
   The shed round sees the port's instantaneous excess; a residual retries
   after the renegotiation delay. *)
let greedy ~ctx fabric cfg requests =
  let obs = ctx.Gridbw_core.Runtime.obs in
  let ctl = Online.create fabric in
  let t =
    create ~obs fabric cfg
      {
        usage = (fun port _ -> Online.used ctl port);
        set_fabric = Online.set_fabric ctl;
        release = (fun a -> ignore (Online.preempt ctl a));
      }
      requests
  in
  let admit r = Online.try_admit ~ctx ctl cfg.policy r ~at:(now t) in
  let overload side port ~now ~until:_ =
    Online.advance_to ctl now;
    let cap = (current t.caps side).(port) in
    let excess = Online.used ctl (port_of side port) -. cap in
    if excess > tol *. Float.max 1.0 cap then Some (excess, fun _ -> true) else None
  in
  let readmit lg =
    sched t (now t +. t.reneg) (fun () ->
        if alive lg then
          match residual_request lg ~at:(now t) with
          | None -> give_up lg
          | Some r -> redecide t lg (admit r))
  in
  List.iter
    (fun (r : Request.t) ->
      sched t r.ts (fun () ->
          if Obs.tracing obs then Emit.emit_arrival obs t.seqs r;
          decide t r (admit r)))
    (Flexible.arrival_order requests);
  (t, { overload; readmit })

(* ---------- WINDOW admission under faults ---------- *)

(* Identical to Flexible.window when the script is empty: the same batches
   are packed by Flexible.pack_batch against the same ledger in the same
   order (batch k at its boundary (k+1)·step).  Shedding releases whole
   reserved intervals, ranked at the port's usage peak over the outage;
   residuals are re-packed at the first boundary after the renegotiation
   delay. *)
let window ~obs fabric cfg ~step requests =
  let ledger = Ledger.create fabric in
  let t =
    create ~obs fabric cfg
      {
        usage = Ledger.usage_at ledger;
        set_fabric = Ledger.set_fabric ledger;
        release = Ledger.release ledger;
      }
      requests
  in
  (* One O(log n) ledger query for the peak and its instant, which tells
     which allocations to rank as victims. *)
  let overload side port ~now ~until =
    let t_star, peak = Ledger.argmax_over ledger (port_of side port) ~from_:now ~until in
    let cap = (current t.caps side).(port) in
    if peak > cap *. (1. +. tol) then
      Some
        ( peak -. cap,
          fun (a : Allocation.t) -> a.Allocation.sigma <= t_star && t_star < a.Allocation.tau )
    else None
  in
  (* Residuals awaiting the next batch boundary, keyed by boundary time. *)
  let pending : (float, Request.t list ref) Hashtbl.t = Hashtbl.create 16 in
  let flush b =
    let batch = Hashtbl.find pending b in
    Hashtbl.remove pending b;
    Flexible.pack_batch ~obs ~now:b cfg.policy ledger
      ~decide:(fun r d -> redecide t (log_of t r) d)
      (List.filter (fun r -> alive (log_of t r)) (List.rev !batch))
  in
  let readmit lg =
    if alive lg then
      match residual_request lg ~at:(now t +. t.reneg) with
      | None -> give_up lg
      | Some r -> (
          let boundary = (Float.floor (r.Request.ts /. step) +. 1.) *. step in
          match Hashtbl.find_opt pending boundary with
          | Some batch -> batch := r :: !batch
          | None ->
              Hashtbl.replace pending boundary (ref [ r ]);
              sched t boundary (fun () -> flush boundary))
  in
  List.iter
    (fun (k, batch) ->
      let boundary = float_of_int (k + 1) *. step in
      sched t boundary (fun () ->
          Emit.emit_arrivals obs t.seqs batch;
          Flexible.pack_batch ~obs ~now:boundary cfg.policy ledger ~decide:(decide t) batch))
    (Flexible.batches ~step requests);
  (t, { overload; readmit })

let run ?(ctx = Gridbw_core.Runtime.default) fabric cfg events requests =
  validate_inputs fabric cfg events requests;
  let t, mode =
    match cfg.admission with
    | Greedy -> greedy ~ctx fabric cfg requests
    | Window step -> window ~obs:ctx.Gridbw_core.Runtime.obs fabric cfg ~step requests
  in
  play t mode events;
  let result = Flexible.collect requests (List.rev t.decisions) in
  (* Residuals still waiting for a renegotiation that never came. *)
  Hashtbl.iter (fun _ lg -> if alive lg && lg.finished_at = None then give_up lg) t.logs;
  let outcomes = List.map (fun r -> outcome_of (log_of t r)) requests in
  let services = List.concat_map (fun r -> List.rev (log_of t r).services) requests in
  let span = span_of requests in
  { result; outcomes; stats = Resilience.compute ~span outcomes; services; span }

(* A fault run viewed through the first-class scheduler interface: the
   admission decision stream of [run] under this config and script.  The
   resilience report is recomputed by callers that need it; schedulers
   only expose the accept/reject outcome. *)
let scheduler cfg events : Gridbw_core.Scheduler.t =
  let name =
    Printf.sprintf "faulty-%s[%d events]" (admission_name cfg.admission) (List.length events)
  in
  Gridbw_core.Scheduler.make ~name (fun ?ctx spec requests ->
      (run ?ctx spec.Gridbw_workload.Spec.fabric cfg events requests).result)
