module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Live = Gridbw_alloc.Live
module Event_queue = Gridbw_sim.Event_queue
module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event
module Span = Gridbw_obs.Span

type t = {
  live : Live.t;
  releases : Allocation.t Event_queue.t;
  mutable clock : float;
  (* Physical identities of the allocations whose bandwidth is still held.
     Preemption removes an entry without touching [releases]; the stale
     queue entry is skipped when its release time is drained. *)
  mutable active : Allocation.t list;
}

let create fabric =
  { live = Live.create fabric; releases = Event_queue.create (); clock = neg_infinity; active = [] }

let fabric t = Live.fabric t.live
let now t = t.clock

(* Event-handler float jitter can ask for a timestamp an ulp in the past;
   absorb it with the same relative slack the ledger uses for capacities,
   and keep the raise for genuinely past times. *)
let clamp_past t time =
  if time >= t.clock then time
  else if t.clock -. time <= 1e-9 *. Float.max 1.0 (Float.abs t.clock) then t.clock
  else invalid_arg "Online.advance_to: time moves backwards"

let remove_active t a = t.active <- List.filter (fun b -> b != a) t.active
let is_active t a = List.memq a t.active

let advance_to t time =
  let time = clamp_past t time in
  t.clock <- time;
  let rec drain () =
    match Event_queue.peek t.releases with
    | Some (tau, a) when tau <= time ->
        ignore (Event_queue.pop t.releases);
        if is_active t a then begin
          Live.release t.live ~ingress:a.Allocation.request.Request.ingress
            ~egress:a.Allocation.request.Request.egress ~bw:a.Allocation.bw;
          remove_active t a
        end;
        drain ()
    | _ -> ()
  in
  drain ()

(* The port that could not fit the request, with its spare bandwidth at
   decision time — the "why" recorded on a Port_saturated trace event.
   When both ports are short, report the tighter one. *)
let blocking_port t (r : Request.t) =
  let fabric = Live.fabric t.live in
  let head_in = Fabric.ingress_capacity fabric r.ingress -. Live.ingress_used t.live r.ingress in
  let head_out = Fabric.egress_capacity fabric r.egress -. Live.egress_used t.live r.egress in
  if head_in <= head_out then ((Event.Ingress, r.ingress), head_in)
  else ((Event.Egress, r.egress), head_out)

let try_admit ?(ctx = Runtime.default) t policy (r : Request.t) ~at =
  let obs = Runtime.observed ctx in
  let at = clamp_past t at in
  advance_to t at;
  let blocked = ref None in
  let decide () =
    match Policy.assign policy r ~now:at with
    | None -> Types.Rejected Types.Deadline_unreachable
    | Some bw ->
        if Live.try_grab t.live ~ingress:r.ingress ~egress:r.egress ~bw then begin
          let a = Allocation.make ~request:r ~bw ~sigma:(Float.max at r.ts) in
          Event_queue.push t.releases ~time:a.Allocation.tau a;
          t.active <- a :: t.active;
          Types.Accepted a
        end
        else begin
          if obs.Obs.enabled then blocked := Some (blocking_port t r);
          Types.Rejected Types.Port_saturated
        end
  in
  if not obs.Obs.enabled then decide ()
  else begin
    let span = ctx.Runtime.span in
    let t0 = match span with Some _ -> Span.now_ns () | None -> 0. in
    let p0 = match span with Some _ -> Live.probe_count t.live | None -> 0 in
    let decision = Obs.span obs "admit" decide in
    (match span with
    | None -> Emit.emit_decision obs ~time:at ?blocked:!blocked r decision
    | Some sp ->
        Span.record sp Span.Admit_search (Span.now_ns () -. t0);
        Span.add_probes sp (Live.probe_count t.live - p0);
        Span.timed span Span.Wal_append (fun () ->
            Emit.emit_decision obs ~time:at ?blocked:!blocked r decision));
    decision
  end

let peek_cost t policy (r : Request.t) ~at =
  let at = clamp_past t at in
  advance_to t at;
  match Policy.assign policy r ~now:at with
  | None -> None
  | Some bw -> Some (bw, Live.saturation t.live ~ingress:r.ingress ~egress:r.egress ~bw)

(* Rebuild the controller state of a recovered run.  Allocations must be
   fed in their original decision order: the counters are float
   accumulators, so bit-identical resumed decisions require replaying the
   exact grab/release sequence of the original run — including
   allocations that already finished (their grab and release both
   happened, in order, and [(u +. a) -. a] is not always [u] if the
   surrounding operations reorder). *)
let restore t (a : Allocation.t) ~at =
  let at = clamp_past t at in
  advance_to t at;
  if
    not
      (Live.try_grab t.live ~ingress:a.Allocation.request.Request.ingress
         ~egress:a.Allocation.request.Request.egress ~bw:a.Allocation.bw)
  then
    invalid_arg
      (Printf.sprintf "Online.restore: recovered allocation %d does not fit"
         a.Allocation.request.Request.id);
  Event_queue.push t.releases ~time:a.Allocation.tau a;
  t.active <- a :: t.active

let preempt ?(ctx = Runtime.default) t (a : Allocation.t) =
  let obs = Runtime.observed ctx in
  if is_active t a then begin
    Live.release t.live ~ingress:a.Allocation.request.Request.ingress
      ~egress:a.Allocation.request.Request.egress ~bw:a.Allocation.bw;
    remove_active t a;
    if obs.Obs.enabled then begin
      Obs.count obs "preempted_total";
      Obs.event obs (fun () ->
          Event.Preempt
            {
              time = t.clock;
              id = a.Allocation.request.Request.id;
              bw = a.Allocation.bw;
              shard = None;
            })
    end;
    true
  end
  else false

let set_fabric t fabric = Live.set_fabric t.live fabric
let active_allocations t = t.active
let active_count t = List.length t.active

let used t port =
  match (port : Gridbw_alloc.Port.t) with
  | Gridbw_alloc.Port.Ingress i -> Live.ingress_used t.live i
  | Gridbw_alloc.Port.Egress e -> Live.egress_used t.live e
