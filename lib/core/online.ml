module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Live = Gridbw_alloc.Live
module Event_queue = Gridbw_sim.Event_queue
module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event
module Span = Gridbw_obs.Span

let admit_span = Obs.span_key "admit"

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

(* Drop the first cell physically equal to [a] in one walk, sharing the
   tail after it so the list keeps its order; [false] when [a] is not
   held.  The fault injector picks victims by that order. *)
let take_active t a =
  let rec drop = function
    | [] -> raise_notrace Not_found
    | b :: rest -> if b == a then rest else b :: drop rest
  in
  match drop t.active with
  | rest ->
      t.active <- rest;
      true
  | exception Not_found -> false

let advance_to t time =
  let time = clamp_past t time in
  t.clock <- time;
  let rec drain () =
    match Event_queue.peek t.releases with
    | Some (tau, a) when tau <= time ->
        ignore (Event_queue.pop t.releases);
        if take_active t a then
          Live.release t.live ~ingress:a.Allocation.request.Request.ingress
            ~egress:a.Allocation.request.Request.egress ~bw:a.Allocation.bw;
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
  let obs = ctx.Runtime.obs in
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
    let decision = Obs.span obs admit_span decide in
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

let preempt ?(ctx = Runtime.default) t (a : Allocation.t) =
  let obs = ctx.Runtime.obs in
  if take_active t a then begin
    Live.release t.live ~ingress:a.Allocation.request.Request.ingress
      ~egress:a.Allocation.request.Request.egress ~bw:a.Allocation.bw;
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

(* Rebuild the controller state of a journaled run, one event at a time
   in journal order.  The counters are float accumulators, so
   bit-identical resumed decisions need the original grab/release
   sequence replayed in order — including allocations that already
   finished (their grab and release both happened, in order, and
   [(u +. a) -. a] is not always [u] if the surrounding operations
   reorder).  Draining releases at a reject instant pops the same
   releases in the same order the next grab's drain would have. *)
let replay t ev =
  match ev with
  | Event.Accept { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma; _ } ->
      let request = Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate in
      let a = Allocation.make ~request ~bw ~sigma in
      advance_to t time;
      if not (Live.try_grab t.live ~ingress ~egress ~bw) then
        invalid_arg (Printf.sprintf "Online.replay: journaled allocation %d does not fit" id);
      Event_queue.push t.releases ~time:a.Allocation.tau a;
      t.active <- a :: t.active;
      Some a
  | Event.Reject { time; _ } ->
      advance_to t time;
      None
  | Event.Preempt { time; id; _ } ->
      advance_to t time;
      (match List.find_opt (fun b -> b.Allocation.request.Request.id = id) t.active with
      | Some a -> ignore (preempt t a)
      | None -> ());
      None
  | Event.Arrival _ | Event.Reshape _ | Event.Capacity _ | Event.Shed _ | Event.Dispatch _ -> None

let set_fabric t fabric = Live.set_fabric t.live fabric
let active_count t = List.length t.active

let used t port =
  match (port : Gridbw_alloc.Port.t) with
  | Gridbw_alloc.Port.Ingress i -> Live.ingress_used t.live i
  | Gridbw_alloc.Port.Egress e -> Live.egress_used t.live e
