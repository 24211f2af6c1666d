(* Internal trace-emission helpers shared by the admission paths
   (Online, Flexible, Rigid).  Everything here is guarded by the context:
   with [Obs.disabled] each call is a branch and nothing else. *)

module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Ledger = Gridbw_alloc.Ledger
module Port = Gridbw_alloc.Port
module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event
module Metrics = Gridbw_obs.Metrics

let requests_total = Metrics.counter_key "admit_requests_total"
let accepted_total = Metrics.counter_key "admit_accepted_total"
let rejected_total = Metrics.counter_key "admit_rejected_total"

(* Input-list position of every request, recorded on Arrival events so a
   trace replay can restore the original list order (summary float sums
   are order-sensitive). *)
let seq_table requests =
  let h = Hashtbl.create (max 16 (List.length requests)) in
  List.iteri (fun i (r : Request.t) -> Hashtbl.replace h r.id i) requests;
  h

let emit_arrival obs seqs ?time (r : Request.t) =
  Obs.event obs (fun () ->
      Event.Arrival
        {
          time = Option.value time ~default:r.ts;
          seq = (match Hashtbl.find_opt seqs r.id with Some s -> s | None -> -1);
          id = r.id;
          ingress = r.ingress;
          egress = r.egress;
          volume = r.volume;
          ts = r.ts;
          tf = r.tf;
          max_rate = r.max_rate;
        })

let emit_arrivals obs seqs batch =
  if Obs.tracing obs then List.iter (fun r -> emit_arrival obs seqs r) batch

(* Counters plus the Accept/Reject trace record for one decision.
   [blocked] is the saturated port and its headroom at decision time,
   when the caller identified one. *)
let emit_decision obs ~time ?blocked (r : Request.t) d =
  if obs.Obs.enabled then begin
    Obs.incr obs requests_total;
    match d with
    | Types.Accepted a ->
        Obs.incr obs accepted_total;
        Obs.event obs (fun () ->
            Event.Accept
              {
                time;
                id = r.id;
                ingress = r.ingress;
                egress = r.egress;
                volume = r.volume;
                ts = r.ts;
                tf = r.tf;
                max_rate = r.max_rate;
                bw = a.Allocation.bw;
                sigma = a.Allocation.sigma;
                shard = None;
              })
    | Types.Rejected reason ->
        Obs.incr obs rejected_total;
        Obs.event obs (fun () ->
            let port, headroom =
              match blocked with
              | Some (p, h) -> (Some p, Some h)
              | None -> (None, None)
            in
            Event.Reject
              { time; id = r.id; reason = Types.reason_name reason; port; headroom; shard = None })
  end

(* The tighter port over the allocation's own transmission interval —
   only computed on the traced-reject path (costs two ledger probes). *)
let spike_port obs ledger (a : Allocation.t) =
  if not (Obs.tracing obs) then None
  else begin
    let r = a.Allocation.request in
    let from_ = a.Allocation.sigma and until = a.Allocation.tau in
    let hi = Ledger.headroom_over ledger (Port.Ingress r.Request.ingress) ~from_ ~until in
    let he = Ledger.headroom_over ledger (Port.Egress r.Request.egress) ~from_ ~until in
    if hi <= he then Some ((Event.Ingress, r.Request.ingress), hi)
    else Some ((Event.Egress, r.Request.egress), he)
  end
