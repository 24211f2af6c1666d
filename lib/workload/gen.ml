module Rng = Gridbw_prng.Rng
module Dist = Gridbw_prng.Dist
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request

let draw rng (spec : Spec.t) ~id ~ts =
  let ingress = Rng.int rng (Fabric.ingress_count spec.fabric) in
  let egress = Rng.int rng (Fabric.egress_count spec.fabric) in
  let volume =
    match spec.volumes with
    | Spec.Paper_set -> Rng.choose rng Spec.paper_volume_set
    | Spec.Uniform_volume { lo; hi } -> Rng.float_in rng lo hi
    | Spec.Fixed_volume v -> v
    | Spec.Choice a -> Rng.choose rng a
  in
  let requested_rate = Rng.float_in rng spec.rate_lo spec.rate_hi in
  (* Rigid: the window is exactly the transmission time at the drawn
     rate.  Flexible: the drawn rate is the host cap (MaxRate) and the
     window allows u x the transmission time, u ~ U[1, max_slack]
     (section 5.3's "bandwidth requests between 10MB/s and 1GB/s"). *)
  let tf, max_rate =
    match spec.flexibility with
    | Spec.Rigid -> (ts +. (volume /. requested_rate), requested_rate)
    | Spec.Flexible { max_slack } ->
        let slack = Rng.float_in rng 1.0 max_slack in
        (ts +. (slack *. volume /. requested_rate), requested_rate)
  in
  Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate

let generate rng (spec : Spec.t) =
  let rec build id clock acc =
    if id >= spec.count then List.rev acc
    else begin
      let ts = clock +. Dist.exponential rng ~mean:spec.mean_interarrival in
      build (id + 1) ts (draw rng spec ~id ~ts :: acc)
    end
  in
  build 0 0.0 []

let arrival_span requests =
  match requests with
  | [] | [ _ ] -> 0.0
  | first :: _ ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) (r : Request.t) -> (Float.min lo r.ts, Float.max hi r.ts))
          (first.Request.ts, first.Request.ts)
          requests
      in
      hi -. lo

let total_volume requests =
  List.fold_left (fun acc (r : Request.t) -> acc +. r.volume) 0.0 requests

let measured_load fabric requests =
  let span = arrival_span requests in
  if span <= 0. then 0.0
  else total_volume requests /. (span *. Fabric.half_total_capacity fabric)
