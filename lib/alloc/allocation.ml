module Request = Gridbw_request.Request

type t = {
  request : Request.t;
  bw : float;
  sigma : float;
  tau : float;
  profile : Rate_profile.t option;
}

let make ~request ~bw ~sigma =
  if bw <= 0. || not (Float.is_finite bw) then
    invalid_arg "Allocation.make: bandwidth must be positive and finite";
  if sigma < request.Request.ts then invalid_arg "Allocation.make: start before requested ts";
  { request; bw; sigma; tau = sigma +. (request.Request.volume /. bw); profile = None }

let of_profile ~request profile =
  let start = Rate_profile.start profile and finish = Rate_profile.finish profile in
  if not (finish > start) then invalid_arg "Allocation.of_profile: empty span";
  let bw = request.Request.volume /. (finish -. start) in
  { (make ~request ~bw ~sigma:start) with profile = Some profile }

let meets_deadline t = t.tau <= t.request.Request.tf *. (1. +. 1e-9) +. 1e-9
