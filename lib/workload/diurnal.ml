module Rng = Gridbw_prng.Rng
module Dist = Gridbw_prng.Dist

type intensity = float -> float

let day_night ~base ~peak ~period =
  if base < 0. || peak < base then invalid_arg "Diurnal.day_night: need 0 <= base <= peak";
  if period <= 0. then invalid_arg "Diurnal.day_night: period must be positive";
  fun t ->
    let phase = 2.0 *. Float.pi *. (t /. period) in
    (* cos starts at the crest; shift so t = 0 is the trough. *)
    base +. ((peak -. base) *. 0.5 *. (1.0 -. cos phase))

let arrival_times rng intensity ~peak ~horizon =
  if peak <= 0. then invalid_arg "Diurnal.arrival_times: peak must be positive";
  if horizon <= 0. then invalid_arg "Diurnal.arrival_times: horizon must be positive";
  (* Lewis-Shedler thinning: candidate arrivals at the dominating constant
     rate [peak], kept with probability intensity(t) / peak. *)
  let rec loop t acc =
    let t = t +. Dist.exponential rng ~mean:(1.0 /. peak) in
    if t >= horizon then List.rev acc
    else begin
      let rate = intensity t in
      if rate < 0. || rate > peak *. (1. +. 1e-9) then
        invalid_arg "Diurnal.arrival_times: intensity outside [0, peak]";
      if Rng.float rng 1.0 < rate /. peak then loop t (t :: acc) else loop t acc
    end
  in
  loop 0.0 []

let generate rng spec intensity ~peak ~horizon =
  List.mapi (fun id ts -> Gen.draw rng spec ~id ~ts) (arrival_times rng intensity ~peak ~horizon)
