module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Ledger = Gridbw_alloc.Ledger
module Port = Gridbw_alloc.Port

type t = { fabric : Fabric.t; ledger : Ledger.t; span : (float * float) option }

let build fabric allocations =
  let ledger = Ledger.create fabric in
  let span =
    List.fold_left
      (fun span (a : Allocation.t) ->
        let r = a.Allocation.request in
        Request.check_route "Timeline.build" fabric ~id:r.Request.id ~ingress:r.Request.ingress
          ~egress:r.Request.egress;
        Ledger.reserve_interval ledger ~ingress:r.Request.ingress ~egress:r.Request.egress
          ~bw:a.Allocation.bw ~from_:a.Allocation.sigma ~until:a.Allocation.tau;
        match span with
        | None -> Some (a.Allocation.sigma, a.Allocation.tau)
        | Some (lo, hi) ->
            Some (Float.min lo a.Allocation.sigma, Float.max hi a.Allocation.tau))
      None allocations
  in
  { fabric; ledger; span }

let span t = t.span
let ingress_usage t i ~at = Ledger.usage_at t.ledger (Port.Ingress i) at

let total_rate t ~at =
  let acc = ref 0.0 in
  for i = 0 to Fabric.ingress_count t.fabric - 1 do
    acc := !acc +. ingress_usage t i ~at
  done;
  !acc

let utilization t ~at = total_rate t ~at /. Fabric.half_total_capacity t.fabric

let sample t ~points =
  if points < 2 then invalid_arg "Timeline.sample: need at least two points";
  match t.span with
  | None -> []
  | Some (lo, hi) ->
      let step = (hi -. lo) /. float_of_int (points - 1) in
      List.init points (fun k ->
          let at = lo +. (float_of_int k *. step) in
          (at, utilization t ~at))
