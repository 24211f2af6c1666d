module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation

type t = {
  total : int;
  accepted : int;
  accept_rate : float;
  utilization : float;
  raw_utilization : float;
  volume_accept_rate : float;
  mean_bw : float;
  mean_speedup : float;
  mean_start_delay : float;
  span : float;
}

let zero =
  {
    total = 0;
    accepted = 0;
    accept_rate = 0.0;
    utilization = 0.0;
    raw_utilization = 0.0;
    volume_accept_rate = 0.0;
    mean_bw = 0.0;
    mean_speedup = 0.0;
    mean_start_delay = 0.0;
    span = 0.0;
  }

let compute fabric ~all ~accepted =
  match all with
  | [] -> zero
  | first :: _ ->
      let t0, t1 =
        List.fold_left
          (fun (t0, t1) (r : Request.t) -> (Float.min t0 r.ts, Float.max t1 r.tf))
          (first.Request.ts, first.Request.tf)
          all
      in
      let span = t1 -. t0 in
      let total = List.length all in
      let accepted_n = List.length accepted in
      let offered_volume = List.fold_left (fun acc (r : Request.t) -> acc +. r.volume) 0.0 all in
      let granted_volume =
        List.fold_left (fun acc (a : Allocation.t) -> acc +. a.request.Request.volume) 0.0 accepted
      in
      (* B_scaled (section 2.2): clamp each port's capacity to the
         time-averaged rate demanded through it, so ports no request ever
         targets do not count in the denominator. *)
      let demand_in = Array.make (Fabric.ingress_count fabric) 0.0 in
      let demand_out = Array.make (Fabric.egress_count fabric) 0.0 in
      List.iter
        (fun (r : Request.t) ->
          demand_in.(r.ingress) <- demand_in.(r.ingress) +. r.volume;
          demand_out.(r.egress) <- demand_out.(r.egress) +. r.volume)
        all;
      let scaled_total =
        let clamp demand cap = Float.min cap (if span > 0. then demand /. span else 0.0) in
        let sum_side demand cap_of n =
          let acc = ref 0.0 in
          for i = 0 to n - 1 do
            acc := !acc +. clamp demand.(i) (cap_of i)
          done;
          !acc
        in
        0.5
        *. (sum_side demand_in (Fabric.ingress_capacity fabric) (Fabric.ingress_count fabric)
           +. sum_side demand_out (Fabric.egress_capacity fabric) (Fabric.egress_count fabric))
      in
      let granted_rate = if span > 0. then granted_volume /. span else 0.0 in
      let mean over n = if n = 0 then 0.0 else over /. float_of_int n in
      let sum_bw, sum_speedup, sum_delay =
        List.fold_left
          (fun (b, s, d) (a : Allocation.t) ->
            ( b +. a.bw,
              s +. (a.bw /. Request.min_rate a.request),
              d +. (a.sigma -. a.request.Request.ts) ))
          (0.0, 0.0, 0.0) accepted
      in
      {
        total;
        accepted = accepted_n;
        accept_rate = float_of_int accepted_n /. float_of_int total;
        utilization = (if scaled_total > 0. then granted_rate /. scaled_total else 0.0);
        raw_utilization =
          (if span > 0. then granted_rate /. Fabric.half_total_capacity fabric else 0.0);
        volume_accept_rate = (if offered_volume > 0. then granted_volume /. offered_volume else 0.0);
        mean_bw = mean sum_bw accepted_n;
        mean_speedup = mean sum_speedup accepted_n;
        mean_start_delay = mean sum_delay accepted_n;
        span;
      }

let guaranteed_count ~f accepted =
  List.fold_left
    (fun acc (a : Allocation.t) ->
      let target = Float.max (f *. a.request.Request.max_rate) (Request.min_rate a.request) in
      if a.bw >= target *. (1. -. 1e-9) then acc + 1 else acc)
    0 accepted

let pp ppf t =
  Format.fprintf ppf
    "@[<v>requests: %d, accepted: %d (%.1f%%)@,\
     utilization (scaled): %.1f%%, raw: %.1f%%@,\
     volume accept rate: %.1f%%@,\
     mean bw: %.1f MB/s, mean speedup: %.2fx, mean start delay: %.1fs@]"
    t.total t.accepted (100. *. t.accept_rate) (100. *. t.utilization)
    (100. *. t.raw_utilization)
    (100. *. t.volume_accept_rate)
    t.mean_bw t.mean_speedup t.mean_start_delay
