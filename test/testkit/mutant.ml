(* A deliberately broken scheduler: GREEDY at minimum rate that admits
   whenever the port's peak usage plus the new rate fits within capacity
   *plus one MB/s* — the classic off-by-one headroom slip.  The
   conformance harness must flag it (the reference audit reports the
   overload) and shrink the evidence to a small replayable bundle; the
   fuzz-smoke tests assert exactly that. *)

module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Fabric = Gridbw_topology.Fabric
module Types = Gridbw_core.Types
module Flexible = Gridbw_core.Flexible
module Scheduler = Gridbw_core.Scheduler
module Emit = Gridbw_core.Emit
module Obs = Gridbw_obs.Obs

let headroom = 1.0

let peak intervals ~from_ ~until =
  let probes = from_ :: List.concat_map (fun (f, u, _) -> [ f; u ]) intervals in
  let usage_at t =
    List.fold_left
      (fun acc (f, u, bw) -> if f <= t && t < u then acc +. bw else acc)
      0.0 intervals
  in
  List.fold_left
    (fun m t -> if from_ <= t && t < until then Float.max m (usage_at t) else m)
    0.0 probes

let greedy : Scheduler.t =
  Scheduler.make ~name:"mutant-greedy" (fun ?(ctx = Gridbw_core.Runtime.default) spec requests ->
      let obs = ctx.Gridbw_core.Runtime.obs in
      let fabric = spec.Gridbw_workload.Spec.fabric in
      let seqs = if Obs.tracing obs then Emit.seq_table requests else Hashtbl.create 1 in
      let booked_in = Hashtbl.create 8 and booked_out = Hashtbl.create 8 in
      let get tbl p = Option.value (Hashtbl.find_opt tbl p) ~default:[] in
      let decisions =
        List.map
          (fun (r : Request.t) ->
            if Obs.tracing obs then Emit.emit_arrival obs seqs r;
            let bw = Request.min_rate r in
            let sigma = r.Request.ts in
            let a = Allocation.make ~request:r ~bw ~sigma in
            let fits tbl p cap =
              peak (get tbl p) ~from_:sigma ~until:a.Allocation.tau +. bw <= cap +. headroom
            in
            let d =
              if
                fits booked_in r.Request.ingress
                  (Fabric.ingress_capacity fabric r.Request.ingress)
                && fits booked_out r.Request.egress
                     (Fabric.egress_capacity fabric r.Request.egress)
              then begin
                let span = (sigma, a.Allocation.tau, bw) in
                Hashtbl.replace booked_in r.Request.ingress (span :: get booked_in r.Request.ingress);
                Hashtbl.replace booked_out r.Request.egress (span :: get booked_out r.Request.egress);
                Types.Accepted a
              end
              else Types.Rejected Types.Port_saturated
            in
            Emit.emit_decision obs ~time:r.Request.ts r d;
            (r, d))
          (Flexible.arrival_order requests)
      in
      Flexible.collect requests decisions)
