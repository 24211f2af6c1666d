module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Rng = Gridbw_prng.Rng
module Dist = Gridbw_prng.Dist

type side = Ingress | Egress

type event =
  | Degrade of { side : side; port : int; factor : float; from_ : float; until : float }
  | Abort of { request_id : int; at : float }
  | Preempt of { request_id : int; at : float }

let side_name = function Ingress -> "ingress" | Egress -> "egress"

let time_of = function
  | Degrade { from_; _ } -> from_
  | Abort { at; _ } | Preempt { at; _ } -> at

let compare_events a b =
  match Float.compare (time_of a) (time_of b) with
  | 0 -> Stdlib.compare a b
  | c -> c

let sort = List.sort compare_events

let validate fabric events =
  let fail fmt = Printf.ksprintf invalid_arg fmt in
  List.iter
    (fun e ->
      match e with
      | Degrade { side; port; factor; from_; until } ->
          let valid =
            match side with
            | Ingress -> Fabric.valid_ingress fabric port
            | Egress -> Fabric.valid_egress fabric port
          in
          if not valid then fail "Fault.validate: bad %s port %d" (side_name side) port;
          if not (Float.is_finite factor) || factor < 0. || factor > 1. then
            fail "Fault.validate: degradation factor %g outside [0, 1]" factor;
          if not (Float.is_finite from_ && Float.is_finite until) || from_ < 0. || from_ >= until
          then fail "Fault.validate: bad degradation window [%g, %g)" from_ until
      | Abort { at; _ } | Preempt { at; _ } ->
          if not (Float.is_finite at) || at < 0. then fail "Fault.validate: bad event time %g" at)
    events;
  (* Overlapping degradations of one port would make "restore to nominal"
     ambiguous; the generator produces renewal (non-overlapping) outages
     per port and scripts must do the same. *)
  let degs =
    List.filter_map
      (function Degrade { side; port; from_; until; _ } -> Some (side, port, from_, until) | _ -> None)
      events
    |> List.sort Stdlib.compare
  in
  let rec check = function
    | (s1, p1, _, u1) :: ((s2, p2, f2, _) :: _ as rest) ->
        if s1 = s2 && p1 = p2 && f2 < u1 then
          fail "Fault.validate: overlapping degradations on %s port %d" (side_name s1) p1;
        check rest
    | _ -> ()
  in
  check degs

type spec = {
  mtbf : float;
  mean_outage : float;
  depth_lo : float;
  depth_hi : float;
}

let default_spec = { mtbf = 400.0; mean_outage = 60.0; depth_lo = 0.2; depth_hi = 0.6 }

let check_spec s =
  if s.mtbf <= 0. || not (Float.is_finite s.mtbf) then
    invalid_arg "Fault.generate: mtbf must be positive and finite";
  if s.mean_outage <= 0. || not (Float.is_finite s.mean_outage) then
    invalid_arg "Fault.generate: mean_outage must be positive and finite";
  if not (Float.is_finite s.depth_lo && Float.is_finite s.depth_hi) || s.depth_lo < 0.
     || s.depth_hi > 1. || s.depth_lo > s.depth_hi
  then invalid_arg "Fault.generate: depth range must satisfy 0 <= lo <= hi <= 1"

let generate rng fabric ~horizon spec =
  check_spec spec;
  if horizon <= 0. || not (Float.is_finite horizon) then
    invalid_arg "Fault.generate: horizon must be positive and finite";
  let port_events side count =
    List.concat
      (List.init count (fun port ->
           (* Renewal process: up-time ~ Exp(mtbf), outage ~ Exp(mean_outage),
              retained capacity uniform in [depth_lo, depth_hi]. *)
           let rec loop acc t =
             let t = t +. Dist.exponential rng ~mean:spec.mtbf in
             if t >= horizon then List.rev acc
             else
               let until = t +. Dist.exponential rng ~mean:spec.mean_outage in
               let factor = Rng.float_in rng spec.depth_lo spec.depth_hi in
               loop (Degrade { side; port; factor; from_ = t; until } :: acc) until
           in
           loop [] 0.))
  in
  let events =
    port_events Ingress (Fabric.ingress_count fabric)
    @ port_events Egress (Fabric.egress_count fabric)
  in
  sort events

let generate_aborts rng ~fraction requests =
  if fraction < 0. || fraction > 1. || not (Float.is_finite fraction) then
    invalid_arg "Fault.generate_aborts: fraction outside [0, 1]";
  List.filter_map
    (fun (r : Request.t) ->
      if Rng.float rng 1.0 < fraction then
        Some (Abort { request_id = r.id; at = Rng.float_in rng r.ts r.tf })
      else None)
    requests
  |> sort

let horizon_of_requests requests =
  List.fold_left (fun acc (r : Request.t) -> Float.max acc r.tf) 0.0 requests
