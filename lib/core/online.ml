module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Live = Gridbw_alloc.Live
module Event_queue = Gridbw_sim.Event_queue
module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event
module Span = Gridbw_obs.Span

let admit_span = Obs.span_key "admit"

(* A booking on the release queue.  [held] goes false when its bandwidth
   goes back, at its [tau] or at a preemption, whichever comes first; a
   preempted booking stays queued and is skipped when its [tau] is
   drained.  [seq] numbers the bookings in the order they were made. *)
type booking = { a : Allocation.t; seq : int; mutable held : bool }

type t = {
  live : Live.t;
  releases : booking Event_queue.t;
  mutable clock : float;
  mutable active : int;  (** bookings still held *)
  mutable booked : int;  (** bookings made *)
}

let create fabric =
  { live = Live.create fabric; releases = Event_queue.create (); clock = neg_infinity; active = 0; booked = 0 }

let fabric t = Live.fabric t.live
let now t = t.clock

(* Event-handler float jitter can ask for a timestamp an ulp in the past;
   absorb it with the same relative slack the ledger uses for capacities,
   and keep the raise for genuinely past times. *)
let clamp_past t time =
  if time >= t.clock then time
  else if t.clock -. time <= 1e-9 *. Float.max 1.0 (Float.abs t.clock) then t.clock
  else invalid_arg "Online.advance_to: time moves backwards"

let book t a =
  Event_queue.push t.releases ~time:a.Allocation.tau { a; seq = t.booked; held = true };
  t.booked <- t.booked + 1;
  t.active <- t.active + 1

let release t b =
  b.held <- false;
  t.active <- t.active - 1;
  let a = b.a in
  Live.release t.live ~ingress:a.Allocation.request.Request.ingress
    ~egress:a.Allocation.request.Request.egress ~bw:a.Allocation.bw

let advance_to t time =
  let time = clamp_past t time in
  t.clock <- time;
  let q = t.releases in
  while (not (Event_queue.is_empty q)) && Event_queue.next_time q <= time do
    let b = Event_queue.take q in
    if b.held then release t b
  done

(* The port that could not fit the request, with its spare bandwidth at
   decision time — the "why" recorded on a Port_saturated trace event.
   When both ports are short, report the tighter one. *)
let blocking_port t (r : Request.t) =
  let fabric = Live.fabric t.live in
  let head_in = Fabric.ingress_capacity fabric r.ingress -. Live.ingress_used t.live r.ingress in
  let head_out = Fabric.egress_capacity fabric r.egress -. Live.egress_used t.live r.egress in
  if head_in <= head_out then ((Event.Ingress, r.ingress), head_in)
  else ((Event.Egress, r.egress), head_out)

let decide t policy (r : Request.t) ~at =
  match Policy.assign policy r ~now:at with
  | None -> Types.Rejected Types.Deadline_unreachable
  | Some bw ->
      if Live.try_grab t.live ~ingress:r.ingress ~egress:r.egress ~bw then begin
        let a = Allocation.make ~request:r ~bw ~sigma:(Float.max at r.ts) in
        book t a;
        Types.Accepted a
      end
      else Types.Rejected Types.Port_saturated

let try_admit ?(ctx = Runtime.default) t policy (r : Request.t) ~at =
  let obs = ctx.Runtime.obs in
  let at = clamp_past t at in
  advance_to t at;
  if not obs.Obs.enabled then decide t policy r ~at
  else begin
    let span = ctx.Runtime.span in
    let t0 = match span with Some _ -> Span.now_ns () | None -> 0. in
    let p0 = match span with Some _ -> Live.probe_count t.live | None -> 0 in
    let decision = Obs.span obs admit_span (fun () -> decide t policy r ~at) in
    (* A reject changes no counter, so the port is the one that blocked. *)
    let blocked =
      match decision with
      | Types.Rejected Types.Port_saturated -> Some (blocking_port t r)
      | Types.Accepted _ | Types.Rejected _ -> None
    in
    (match span with
    | None -> Emit.emit_decision obs ~time:at ?blocked r decision
    | Some sp ->
        Span.record sp Span.Admit_search (Span.now_ns () -. t0);
        Span.add_probes sp (Live.probe_count t.live - p0);
        Span.timed span Span.Wal_append (fun () ->
            Emit.emit_decision obs ~time:at ?blocked r decision));
    decision
  end

(* The held booking of [a] (by physical identity), if any. *)
let held_booking t (a : Allocation.t) =
  Event_queue.fold (fun found b -> if b.held && b.a == a then Some b else found) None t.releases

(* The newest held booking of request [id], if any. *)
let newest_held t id =
  Event_queue.fold
    (fun found b ->
      if b.held && b.a.Allocation.request.Request.id = id then
        match found with Some f when f.seq > b.seq -> found | _ -> Some b
      else found)
    None t.releases

(* Release held booking [b] now, as a preemption. *)
let preempt_held ctx t b =
  let obs = ctx.Runtime.obs in
  release t b;
  Emit.emit_preempt obs ~time:t.clock b.a;
  true

let preempt ?(ctx = Runtime.default) t (a : Allocation.t) =
  match held_booking t a with None -> false | Some b -> preempt_held ctx t b

let preempt_booking ?(ctx = Runtime.default) t n =
  match
    Event_queue.fold (fun found b -> if b.held && b.seq = n then Some b else found) None t.releases
  with
  | None -> false
  | Some b -> preempt_held ctx t b

let last_booking t = t.booked - 1

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
      book t a;
      Some a
  | Event.Reject { time; _ } ->
      advance_to t time;
      None
  | Event.Preempt { time; id; _ } ->
      advance_to t time;
      Option.iter (release t) (newest_held t id);
      None
  | Event.Arrival _ | Event.Reshape _ | Event.Capacity _ | Event.Shed _ -> None

let set_fabric t fabric = Live.set_fabric t.live fabric
let active_count t = t.active

let used t port =
  match (port : Gridbw_alloc.Port.t) with
  | Gridbw_alloc.Port.Ingress i -> Live.ingress_used t.live i
  | Gridbw_alloc.Port.Egress e -> Live.egress_used t.live e
