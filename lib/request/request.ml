module Fabric = Gridbw_topology.Fabric

type t = {
  id : int;
  ingress : int;
  egress : int;
  volume : float;
  ts : float;
  tf : float;
  max_rate : float;
}

let finite x = Float.is_finite x

let make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate =
  if not (finite volume && finite ts && finite tf && finite max_rate) then
    invalid_arg "Request.make: non-finite field";
  if volume <= 0. then invalid_arg "Request.make: volume must be positive";
  if tf <= ts then invalid_arg "Request.make: empty transmission window";
  if max_rate <= 0. then invalid_arg "Request.make: max_rate must be positive";
  let min_rate = volume /. (tf -. ts) in
  if max_rate < min_rate *. (1. -. 1e-9) then
    invalid_arg "Request.make: max_rate below min_rate (deadline unreachable)";
  { id; ingress; egress; volume; ts; tf; max_rate }

let make_rigid ~id ~ingress ~egress ~bw ~ts ~tf =
  if bw <= 0. then invalid_arg "Request.make_rigid: bandwidth must be positive";
  if tf <= ts then invalid_arg "Request.make_rigid: empty transmission window";
  make ~id ~ingress ~egress ~volume:(bw *. (tf -. ts)) ~ts ~tf ~max_rate:bw

let min_rate r = r.volume /. (r.tf -. r.ts)

let min_rate_at r ~now =
  if now >= r.tf then None
  else
    let start = Float.max now r.ts in
    if start >= r.tf then None else Some (r.volume /. (r.tf -. start))

let duration_at r ~bw =
  if bw <= 0. then invalid_arg "Request.duration_at: bandwidth must be positive";
  r.volume /. bw

let is_rigid r = r.max_rate <= min_rate r *. (1. +. 1e-9)
let slack r = r.max_rate /. min_rate r
let routed_on r fabric = Fabric.valid_ingress fabric r.ingress && Fabric.valid_egress fabric r.egress

let check_route label fabric ~id ~ingress ~egress =
  if not (Fabric.valid_ingress fabric ingress && Fabric.valid_egress fabric egress) then
    invalid_arg (Printf.sprintf "%s: request %d routed on unknown port" label id)

let check_routes label fabric requests =
  List.iter
    (fun r -> check_route label fabric ~id:r.id ~ingress:r.ingress ~egress:r.egress)
    requests
let compare a b = Int.compare a.id b.id
let equal a b = a.id = b.id

let pp ppf r =
  Format.fprintf ppf "r%d[%d->%d vol=%.1fMB win=[%.2f,%.2f] max=%.1fMB/s]" r.id r.ingress
    r.egress r.volume r.ts r.tf r.max_rate
