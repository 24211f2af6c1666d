module Fabric = Gridbw_topology.Fabric

type volume_dist =
  | Paper_set
  | Uniform_volume of { lo : float; hi : float }
  | Fixed_volume of float
  | Choice of float array

type flexibility = Rigid | Flexible of { max_slack : float }

type t = {
  fabric : Fabric.t;
  volumes : volume_dist;
  rate_lo : float;
  rate_hi : float;
  flexibility : flexibility;
  mean_interarrival : float;
  count : int;
}

(* §4.3: {10..90 GB by 10} ∪ {100..900 GB by 100} ∪ {1 TB}, in MB. *)
let paper_volume_set =
  let small = Array.init 9 (fun i -> float_of_int (i + 1) *. 10_000.) in
  let mid = Array.init 9 (fun i -> float_of_int (i + 1) *. 100_000.) in
  Array.concat [ small; mid; [| 1_000_000. |] ]

let mean_of_array a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let mean_volume = function
  | Paper_set -> mean_of_array paper_volume_set
  | Uniform_volume { lo; hi } -> 0.5 *. (lo +. hi)
  | Fixed_volume v -> v
  | Choice a -> mean_of_array a

let make ?fabric ?(volumes = Paper_set) ?(rate_lo = 10.) ?(rate_hi = 1000.)
    ?(flexibility = Flexible { max_slack = 4.0 }) ?(count = 1000) ~mean_interarrival () =
  let fabric = match fabric with Some f -> f | None -> Fabric.paper_default () in
  if rate_lo <= 0. || rate_hi < rate_lo then invalid_arg "Spec.make: bad rate range";
  if mean_interarrival <= 0. then invalid_arg "Spec.make: mean_interarrival must be positive";
  if count <= 0 then invalid_arg "Spec.make: count must be positive";
  (match volumes with
  | Uniform_volume { lo; hi } when lo <= 0. || hi < lo -> invalid_arg "Spec.make: bad volume range"
  | Fixed_volume v when v <= 0. -> invalid_arg "Spec.make: bad fixed volume"
  | Choice a when Array.length a = 0 || Array.exists (fun v -> v <= 0.) a ->
      invalid_arg "Spec.make: bad volume choice set"
  | _ -> ());
  (match flexibility with
  | Flexible { max_slack } when max_slack < 1. || not (Float.is_finite max_slack) ->
      invalid_arg "Spec.make: max_slack must be finite and >= 1"
  | _ -> ());
  { fabric; volumes; rate_lo; rate_hi; flexibility; mean_interarrival; count }

let paper_rigid ?count ~load () =
  if load <= 0. then invalid_arg "Spec.paper_rigid: load must be positive";
  let fabric = Fabric.paper_default () in
  let mean_interarrival = mean_volume Paper_set /. (load *. Fabric.half_total_capacity fabric) in
  make ~fabric ~flexibility:Rigid ?count ~mean_interarrival ()

let paper_flexible ?count ?(max_slack = 4.0) ~mean_interarrival () =
  make ~flexibility:(Flexible { max_slack }) ?count ~mean_interarrival ()

let offered_load t =
  mean_volume t.volumes /. (t.mean_interarrival *. Fabric.half_total_capacity t.fabric)

let pp_volumes ppf = function
  | Paper_set -> Format.fprintf ppf "paper-set"
  | Uniform_volume { lo; hi } -> Format.fprintf ppf "uniform[%.0f,%.0f]MB" lo hi
  | Fixed_volume v -> Format.fprintf ppf "fixed(%.0fMB)" v
  | Choice a -> Format.fprintf ppf "choice(%d values)" (Array.length a)

let pp ppf t =
  Format.fprintf ppf "@[<h>spec{%s, vol=%a, rate=[%.0f,%.0f]MB/s, 1/λ=%.3fs, n=%d, load≈%.2f}@]"
    (match t.flexibility with Rigid -> "rigid" | Flexible _ -> "flexible")
    pp_volumes t.volumes t.rate_lo t.rate_hi t.mean_interarrival t.count (offered_load t)
