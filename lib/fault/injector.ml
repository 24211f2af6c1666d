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

let apply_degrade caps side port ~factor =
  let nominal, arr =
    match side with
    | Fault.Ingress -> (Fabric.ingress_capacity caps.base port, caps.cur_in)
    | Fault.Egress -> (Fabric.egress_capacity caps.base port, caps.cur_out)
  in
  arr.(port) <- Float.max (factor *. nominal) outage_floor;
  Fabric.make ~ingress:caps.cur_in ~egress:caps.cur_out

let apply_restore caps side port =
  let nominal =
    match side with
    | Fault.Ingress -> Fabric.ingress_capacity caps.base port
    | Fault.Egress -> Fabric.egress_capacity caps.base port
  in
  (match side with
  | Fault.Ingress -> caps.cur_in.(port) <- nominal
  | Fault.Egress -> caps.cur_out.(port) <- nominal);
  Fabric.make ~ingress:caps.cur_in ~egress:caps.cur_out

let current_capacity caps side port =
  match side with Fault.Ingress -> caps.cur_in.(port) | Fault.Egress -> caps.cur_out.(port)

let event_side = function Fault.Ingress -> Event.Ingress | Fault.Egress -> Event.Egress

(* Capacity-revision trace record, emitted whenever a degrade or restore
   rewrites a port's capacity. *)
let emit_capacity obs ~time side port caps =
  if obs.Obs.enabled then begin
    Obs.count obs "capacity_revisions_total";
    Obs.event obs (fun () ->
        Event.Capacity
          { time; side = event_side side; port; capacity = current_capacity caps side port })
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
  List.iter
    (fun (r : Request.t) ->
      if not (Request.routed_on r fabric) then
        invalid_arg (Printf.sprintf "Injector.run: request %d routed on unknown port" r.Request.id))
    requests

(* ---------- GREEDY admission under faults ---------- *)

(* Identical to Flexible.greedy when the script is empty: arrivals are
   processed through the same Online controller in the same order, so the
   decision stream — and therefore every summary metric — is bit-identical.
   Faults interleave as engine events; at equal timestamps arrivals decide
   before faults strike (both before any renegotiation scheduled then). *)
let run_greedy ?(obs = Obs.disabled) fabric cfg events requests =
  let ictx = Gridbw_core.Runtime.make ~obs () in
  let ctl = Online.create fabric in
  let caps = caps_of fabric in
  let engine = Engine.create ~obs () in
  let reneg = Plane.renegotiation_delay cfg.control in
  let logs = Hashtbl.create (List.length requests) in
  List.iter (fun (r : Request.t) -> Hashtbl.replace logs r.id (new_log r)) requests;
  let log_of_id id = Hashtbl.find_opt logs id in
  let log_of_alloc (a : Allocation.t) = Hashtbl.find logs a.Allocation.request.Request.id in
  let decisions = ref [] in
  let check_invariants () =
    if cfg.check_invariants then begin
      Array.iteri
        (fun i cap ->
          if not (within_current (Online.used ctl (Port.Ingress i)) cap) then
            failwith
              (Printf.sprintf "Injector: ingress %d over current capacity (%g > %g)" i
                 (Online.used ctl (Port.Ingress i)) cap))
        caps.cur_in;
      Array.iteri
        (fun e cap ->
          if not (within_current (Online.used ctl (Port.Egress e)) cap) then
            failwith
              (Printf.sprintf "Injector: egress %d over current capacity (%g > %g)" e
                 (Online.used ctl (Port.Egress e)) cap))
        caps.cur_out
    end
  in
  let sched time handler =
    Engine.schedule engine ~time (fun engine ->
        handler engine;
        check_invariants ())
  in
  let note_admit lg (a : Allocation.t) =
    lg.admitted <- true;
    lg.cur <- Some a;
    sched a.Allocation.tau (fun _ ->
        match lg.cur with
        | Some b when b == a ->
            lg.cur <- None;
            lg.delivered <- lg.delivered +. (a.Allocation.bw *. (a.Allocation.tau -. a.Allocation.sigma));
            lg.finished_at <- Some a.Allocation.tau;
            lg.services <-
              {
                s_ingress = a.Allocation.request.Request.ingress;
                s_egress = a.Allocation.request.Request.egress;
                s_bw = a.Allocation.bw;
                s_from = a.Allocation.sigma;
                s_until = a.Allocation.tau;
              }
              :: lg.services
        | _ -> ())
  in
  let give_up lg ~down =
    (* The guarantee is broken from the preemption to the deadline. *)
    lg.violation <- lg.violation +. Float.max 0. (lg.req.Request.tf -. down);
    lg.down_since <- None
  in
  (* Residuals whose renegotiation was rejected (port still degraded);
     they re-signal when a degraded port is restored. *)
  let waiting = ref [] in
  let attempt_readmit lg engine =
    if (not lg.aborted) && lg.down_since <> None then begin
      let now = Engine.now engine in
      let down = Option.get lg.down_since in
      let r = lg.req in
      let residual = r.Request.volume -. lg.delivered in
      if
        now >= r.Request.tf
        || residual /. (r.Request.tf -. now) > r.Request.max_rate *. (1. +. tol)
      then give_up lg ~down
      else
        let r' =
          Request.make ~id:r.Request.id ~ingress:r.Request.ingress ~egress:r.Request.egress
            ~volume:residual ~ts:now ~tf:r.Request.tf ~max_rate:r.Request.max_rate
        in
        match Online.try_admit ~ctx:ictx ctl cfg.policy r' ~at:now with
        | Types.Accepted a' ->
            lg.violation <- lg.violation +. Float.max 0. (a'.Allocation.sigma -. down);
            lg.down_since <- None;
            note_admit lg a'
        | Types.Rejected _ -> waiting := lg :: !waiting
    end
  in
  let retry_waiting engine =
    let ws =
      List.sort (fun a b -> Int.compare a.req.Request.id b.req.Request.id) !waiting
    in
    waiting := [];
    List.iter (fun lg -> sched (Engine.now engine +. reneg) (attempt_readmit lg)) ws
  in
  let rec preempt_now engine lg (a : Allocation.t) ~recover =
    let now = Engine.now engine in
    ignore (Online.preempt ~ctx:ictx ctl a);
    lg.cur <- None;
    lg.preemptions <- lg.preemptions + 1;
    let served = Float.max 0. (now -. a.Allocation.sigma) in
    if served > 0. then begin
      lg.delivered <- lg.delivered +. (a.Allocation.bw *. served);
      lg.services <-
        {
          s_ingress = a.Allocation.request.Request.ingress;
          s_egress = a.Allocation.request.Request.egress;
          s_bw = a.Allocation.bw;
          s_from = a.Allocation.sigma;
          s_until = now;
        }
        :: lg.services
    end;
    let r = lg.req in
    let residual = r.Request.volume -. lg.delivered in
    if residual <= tol *. r.Request.volume then lg.finished_at <- Some now
    else if not recover then ()
    else begin
      lg.down_since <- Some now;
      match cfg.recovery with
      | No_recovery -> give_up lg ~down:now
      | Resubmit -> sched (now +. reneg) (attempt_readmit lg)
    end
  and shed engine side port =
    Obs.span obs shed_span @@ fun () ->
    let now = Engine.now engine in
    Online.advance_to ctl now;
    let cap = current_capacity caps side port in
    let used = Online.used ctl (port_of side port) in
    let excess = used -. cap in
    if excess > tol *. Float.max 1.0 cap then begin
      let candidates =
        Online.active_allocations ctl
        |> List.filter (on_port side port)
        |> List.map (fun a -> (a, residual_if_cut (log_of_alloc a) a ~now))
      in
      let victims = Victim.select cfg.victim ~need:excess candidates in
      List.iter (fun a -> preempt_now engine (log_of_alloc a) a ~recover:true) victims;
      emit_shed obs ~time:now side port ~excess ~victims:(List.length victims)
    end
  in
  (* Arrivals first (same order as Flexible.greedy), then fault events, so
     same-instant ties resolve arrivals-before-faults deterministically. *)
  let seqs = if Obs.tracing obs then Emit.seq_table requests else Hashtbl.create 1 in
  List.iter
    (fun (r : Request.t) ->
      sched r.ts (fun engine ->
          if Obs.tracing obs then Emit.emit_arrival obs seqs r;
          let d = Online.try_admit ~ctx:ictx ctl cfg.policy r ~at:(Engine.now engine) in
          decisions := (r, d) :: !decisions;
          match d with
          | Types.Accepted a -> note_admit (Hashtbl.find logs r.id) a
          | Types.Rejected _ -> ()))
    (Flexible.arrival_order requests);
  List.iter
    (fun event ->
      match event with
      | Fault.Degrade { side; port; factor; from_; until } ->
          sched from_ (fun engine ->
              Online.set_fabric ctl (apply_degrade caps side port ~factor);
              emit_capacity obs ~time:(Engine.now engine) side port caps;
              shed engine side port);
          sched until (fun engine ->
              Online.set_fabric ctl (apply_restore caps side port);
              emit_capacity obs ~time:(Engine.now engine) side port caps;
              retry_waiting engine)
      | Fault.Abort { request_id; at } ->
          sched at (fun engine ->
              match log_of_id request_id with
              | None -> ()
              | Some lg ->
                  (match lg.cur with
                  | Some a when lg.finished_at = None ->
                      preempt_now engine lg a ~recover:false;
                      lg.aborted <- true
                  | _ ->
                      if lg.admitted && lg.finished_at = None then begin
                        lg.aborted <- true;
                        lg.down_since <- None
                      end))
      | Fault.Preempt { request_id; at } ->
          sched at (fun engine ->
              match log_of_id request_id with
              | None -> ()
              | Some lg -> (
                  match lg.cur with
                  | Some a when lg.finished_at = None -> preempt_now engine lg a ~recover:true
                  | _ -> ())))
    events;
  Engine.run engine;
  (!decisions, logs)

(* ---------- WINDOW admission under faults ---------- *)

(* Identical to Flexible.window when the script is empty: the same batches
   are packed by Flexible.pack_batch against the same ledger in the same
   order (batch k at its boundary (k+1)·step).  Faults revise the ledger's
   fabric; shedding releases whole reserved intervals and residuals are
   re-packed at the first boundary after the renegotiation delay. *)
let run_window ?(obs = Obs.disabled) fabric cfg ~step events requests =
  let ledger = Ledger.create fabric in
  let caps = caps_of fabric in
  let engine = Engine.create ~obs () in
  let reneg = Plane.renegotiation_delay cfg.control in
  let logs = Hashtbl.create (List.length requests) in
  List.iter (fun (r : Request.t) -> Hashtbl.replace logs r.id (new_log r)) requests;
  let log_of_id id = Hashtbl.find_opt logs id in
  let log_of_alloc (a : Allocation.t) = Hashtbl.find logs a.Allocation.request.Request.id in
  let decisions = ref [] in
  let registry = ref [] in
  let unregister a = registry := List.filter (fun b -> b != a) !registry in
  let check_invariants () =
    if cfg.check_invariants then begin
      let now = Engine.now engine in
      Array.iteri
        (fun i cap ->
          if not (within_current (Ledger.usage_at ledger (Port.Ingress i) now) cap) then
            failwith (Printf.sprintf "Injector: ingress %d over current capacity at %g" i now))
        caps.cur_in;
      Array.iteri
        (fun e cap ->
          if not (within_current (Ledger.usage_at ledger (Port.Egress e) now) cap) then
            failwith (Printf.sprintf "Injector: egress %d over current capacity at %g" e now))
        caps.cur_out
    end
  in
  let sched time handler =
    Engine.schedule engine ~time (fun engine ->
        handler engine;
        check_invariants ())
  in
  let finish lg (a : Allocation.t) =
    lg.cur <- None;
    unregister a;
    lg.delivered <- lg.delivered +. (a.Allocation.bw *. (a.Allocation.tau -. a.Allocation.sigma));
    lg.finished_at <- Some a.Allocation.tau;
    lg.services <-
      {
        s_ingress = a.Allocation.request.Request.ingress;
        s_egress = a.Allocation.request.Request.egress;
        s_bw = a.Allocation.bw;
        s_from = a.Allocation.sigma;
        s_until = a.Allocation.tau;
      }
      :: lg.services
  in
  let register engine lg (a : Allocation.t) =
    lg.admitted <- true;
    if a.Allocation.tau <= Engine.now engine then
      (* Whole transfer fits inside the already-elapsed part of the batch
         interval (retroactive booking, as in Flexible.window). *)
      finish lg a
    else begin
      lg.cur <- Some a;
      registry := a :: !registry;
      sched a.Allocation.tau (fun _ ->
          match lg.cur with Some b when b == a -> finish lg a | _ -> ())
    end
  in
  let give_up lg ~down =
    lg.violation <- lg.violation +. Float.max 0. (lg.req.Request.tf -. down);
    lg.down_since <- None
  in
  (* Residuals awaiting the next batch boundary, keyed by boundary time. *)
  let pending : (float, Request.t list ref) Hashtbl.t = Hashtbl.create 16 in
  (* Residuals rejected at a boundary (port still degraded); they re-signal
     when a degraded port is restored. *)
  let waiting = ref [] in
  let rec flush_boundary engine b =
    match Hashtbl.find_opt pending b with
    | None -> ()
    | Some batch_ref ->
        Hashtbl.remove pending b;
        let batch =
          List.filter
            (fun (r : Request.t) ->
              match log_of_id r.id with
              | Some lg -> (not lg.aborted) && lg.down_since <> None
              | None -> false)
            (List.rev !batch_ref)
        in
        Flexible.pack_batch ~obs ~now:b cfg.policy ledger
          ~decide:(fun r d ->
            let lg = Hashtbl.find logs r.Request.id in
            match d with
            | Types.Accepted a ->
                let down = Option.get lg.down_since in
                lg.violation <- lg.violation +. Float.max 0. (a.Allocation.sigma -. down);
                lg.down_since <- None;
                register engine lg a
            | Types.Rejected _ -> waiting := lg :: !waiting)
          batch
  and queue_residual lg ~now =
    let r = lg.req in
    let residual = r.Request.volume -. lg.delivered in
    let t_re = now +. reneg in
    if t_re >= r.Request.tf || residual /. (r.Request.tf -. t_re) > r.Request.max_rate *. (1. +. tol)
    then give_up lg ~down:now
    else begin
      let r' =
        Request.make ~id:r.Request.id ~ingress:r.Request.ingress ~egress:r.Request.egress
          ~volume:residual ~ts:t_re ~tf:r.Request.tf ~max_rate:r.Request.max_rate
      in
      let boundary = (Float.floor (t_re /. step) +. 1.) *. step in
      match Hashtbl.find_opt pending boundary with
      | Some batch_ref -> batch_ref := r' :: !batch_ref
      | None ->
          Hashtbl.replace pending boundary (ref [ r' ]);
          sched boundary (fun engine -> flush_boundary engine boundary)
    end
  and preempt_now engine lg (a : Allocation.t) ~recover =
    let now = Engine.now engine in
    Ledger.release ledger a;
    unregister a;
    lg.cur <- None;
    lg.preemptions <- lg.preemptions + 1;
    (if obs.Obs.enabled then begin
       Obs.count obs "preempted_total";
       Obs.event obs (fun () ->
           Event.Preempt
             { time = now; id = a.Allocation.request.Request.id; bw = a.Allocation.bw; shard = None })
     end);
    let served = Float.max 0. (Float.min now a.Allocation.tau -. a.Allocation.sigma) in
    if served > 0. then begin
      lg.delivered <- lg.delivered +. (a.Allocation.bw *. served);
      lg.services <-
        {
          s_ingress = a.Allocation.request.Request.ingress;
          s_egress = a.Allocation.request.Request.egress;
          s_bw = a.Allocation.bw;
          s_from = a.Allocation.sigma;
          s_until = now;
        }
        :: lg.services
    end;
    let residual = lg.req.Request.volume -. lg.delivered in
    if residual <= tol *. lg.req.Request.volume then lg.finished_at <- Some now
    else if not recover then ()
    else begin
      lg.down_since <- Some now;
      match cfg.recovery with
      | No_recovery -> give_up lg ~down:now
      | Resubmit -> queue_residual lg ~now
    end
  in
  (* Usage peak of the degraded port over the outage window; the argmax
     instant tells us which allocations to rank as victims.  One O(log n)
     ledger query — this used to enumerate every breakpoint of the port
     and recompute the usage at each, O(n^2) per shed round. *)
  let peak_over side port ~from_ ~until =
    Ledger.argmax_over ledger (port_of side port) ~from_ ~until
  in
  let shed engine side port ~until =
    Obs.span obs shed_span @@ fun () ->
    let now = Engine.now engine in
    let cap = current_capacity caps side port in
    let shed_victims = ref 0 in
    let excess0 = ref 0.0 in
    let rec loop () =
      let t_star, peak = peak_over side port ~from_:now ~until in
      if peak > cap *. (1. +. tol) then begin
        if !shed_victims = 0 then excess0 := peak -. cap;
        let candidates =
          !registry
          |> List.filter (fun (a : Allocation.t) ->
                 on_port side port a
                 && a.Allocation.sigma <= t_star
                 && t_star < a.Allocation.tau
                 && a.Allocation.tau > now)
          |> List.map (fun a -> (a, residual_if_cut (log_of_alloc a) a ~now))
        in
        match Victim.select cfg.victim ~need:(peak -. cap) candidates with
        | [] -> ()
        | victims ->
            List.iter (fun a -> preempt_now engine (log_of_alloc a) a ~recover:true) victims;
            shed_victims := !shed_victims + List.length victims;
            loop ()
      end
    in
    loop ();
    if !shed_victims > 0 then
      emit_shed obs ~time:now side port ~excess:!excess0 ~victims:!shed_victims
  in
  (* Arrival batches first (same order as Flexible.window), then faults. *)
  let seqs = if Obs.tracing obs then Emit.seq_table requests else Hashtbl.create 1 in
  List.iter
    (fun (k, batch) ->
      let boundary = float_of_int (k + 1) *. step in
      sched boundary (fun engine ->
          Emit.emit_arrivals obs seqs batch;
          Flexible.pack_batch ~obs ~now:boundary cfg.policy ledger
            ~decide:(fun r d ->
              decisions := (r, d) :: !decisions;
              match d with
              | Types.Accepted a -> register engine (Hashtbl.find logs r.Request.id) a
              | Types.Rejected _ -> ())
            batch))
    (Flexible.batches ~step requests);
  List.iter
    (fun event ->
      match event with
      | Fault.Degrade { side; port; factor; from_; until } ->
          sched from_ (fun engine ->
              Ledger.set_fabric ledger (apply_degrade caps side port ~factor);
              emit_capacity obs ~time:(Engine.now engine) side port caps;
              shed engine side port ~until);
          sched until (fun engine ->
              Ledger.set_fabric ledger (apply_restore caps side port);
              emit_capacity obs ~time:(Engine.now engine) side port caps;
              let ws =
                List.sort (fun a b -> Int.compare a.req.Request.id b.req.Request.id) !waiting
              in
              waiting := [];
              List.iter (fun lg -> queue_residual lg ~now:(Engine.now engine)) ws)
      | Fault.Abort { request_id; at } ->
          sched at (fun engine ->
              match log_of_id request_id with
              | None -> ()
              | Some lg ->
                  (match lg.cur with
                  | Some a when lg.finished_at = None ->
                      preempt_now engine lg a ~recover:false;
                      lg.aborted <- true
                  | _ ->
                      if lg.admitted && lg.finished_at = None then begin
                        lg.aborted <- true;
                        lg.down_since <- None
                      end))
      | Fault.Preempt { request_id; at } ->
          sched at (fun engine ->
              match log_of_id request_id with
              | None -> ()
              | Some lg -> (
                  match lg.cur with
                  | Some a when lg.finished_at = None -> preempt_now engine lg a ~recover:true
                  | _ -> ())))
    events;
  Engine.run engine;
  (!decisions, logs)

let run ?(ctx = Gridbw_core.Runtime.default) fabric cfg events requests =
  let module Runtime = Gridbw_core.Runtime in
  let obs = Runtime.observed ctx in
  validate_inputs fabric cfg events requests;
  let decisions, logs =
    match cfg.admission with
    | Greedy -> run_greedy ~obs fabric cfg events requests
    | Window step -> run_window ~obs fabric cfg ~step events requests
  in
  let result = Flexible.collect requests (List.rev decisions) in
  (* Residuals still waiting for a renegotiation that never came: the
     guarantee stayed broken from the preemption to the deadline. *)
  Hashtbl.iter
    (fun _ lg ->
      match lg.down_since with
      | Some down when (not lg.aborted) && lg.finished_at = None ->
          lg.violation <- lg.violation +. Float.max 0. (lg.req.Request.tf -. down);
          lg.down_since <- None
      | _ -> ())
    logs;
  let outcomes =
    List.map (fun (r : Request.t) -> outcome_of (Hashtbl.find logs r.id)) requests
  in
  let services =
    List.concat_map (fun (r : Request.t) -> List.rev (Hashtbl.find logs r.id).services) requests
  in
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
