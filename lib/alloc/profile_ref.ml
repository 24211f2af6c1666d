module Fmap = Map.Make (Float)

(* Reference implementation: map from breakpoint time to the delta of
   allocated bandwidth there, every query a full prefix-sum walk.  Kept as
   the O(n)-per-query oracle that [Timeline] is differentially tested
   against; the ledger's hot path uses [Timeline].
   Invariant: no stored delta is exactly 0 (cancelled entries are removed),
   so [breakpoints] reflects actual level changes of exact-float reservations. *)
type t = float Fmap.t

let empty = Fmap.empty

let add_delta t time delta =
  Fmap.update time
    (function
      | None -> if delta = 0. then None else Some delta
      | Some d ->
          let d = d +. delta in
          if d = 0. then None else Some d)
    t

let add t ~from_ ~until bw =
  if not (Float.is_finite from_ && Float.is_finite until) then
    invalid_arg "Profile_ref.add: non-finite interval";
  if from_ >= until then invalid_arg "Profile_ref.add: empty interval";
  let t = add_delta t from_ bw in
  add_delta t until (-.bw)

let remove t ~from_ ~until bw = add t ~from_ ~until (-.bw)

let usage_at t time =
  Fmap.fold (fun bp delta acc -> if bp <= time then acc +. delta else acc) t 0.0

let max_over t ~from_ ~until =
  if from_ >= until then invalid_arg "Profile_ref.max_over: empty interval";
  (* Level at the start of the interval, then walk breakpoints inside it. *)
  let start_level =
    Fmap.fold (fun bp delta acc -> if bp <= from_ then acc +. delta else acc) t 0.0
  in
  let best = ref start_level in
  let level = ref start_level in
  Fmap.iter
    (fun bp delta ->
      if bp > from_ && bp < until then begin
        level := !level +. delta;
        if !level > !best then best := !level
      end)
    t;
  !best

let peak t =
  let best = ref 0.0 and level = ref 0.0 in
  Fmap.iter
    (fun _ delta ->
      level := !level +. delta;
      if !level > !best then best := !level)
    t;
  !best

let breakpoints t = Fmap.fold (fun bp _ acc -> bp :: acc) t [] |> List.rev

let is_empty t = Fmap.is_empty t
