module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request

type flow_report = {
  request : Request.t;
  finish : float;
  deadline_met : bool;
  stretch : float;
  mean_rate : float;
}

type result = {
  flows : flow_report list;
  deadline_miss_rate : float;
  mean_stretch : float;
  max_concurrency : int;
  events : int;
}

type active = { req : Request.t; mutable remaining : float }

let simulate fabric requests =
  Request.check_routes "Fluid" fabric requests;
  let caps_in = Array.init (Fabric.ingress_count fabric) (Fabric.ingress_capacity fabric) in
  let caps_out = Array.init (Fabric.egress_count fabric) (Fabric.egress_capacity fabric) in
  let pending =
    ref
      (List.sort
         (fun (a : Request.t) (b : Request.t) ->
           match Float.compare a.ts b.ts with 0 -> Int.compare a.id b.id | c -> c)
         requests)
  in
  let active : active list ref = ref [] in
  let reports = ref [] in
  let events = ref 0 in
  let max_concurrency = ref 0 in
  let clock = ref 0.0 in
  let current_rates () =
    let arr = Array.of_list !active in
    let flows =
      Array.map
        (fun a ->
          { Maxmin.ingress = a.req.Request.ingress; egress = a.req.Request.egress;
            max_rate = a.req.Request.max_rate })
        arr
    in
    (arr, Maxmin.rates ~caps_in ~caps_out flows)
  in
  let finish_flow a t =
    active := List.filter (fun b -> b != a) !active;
    let r = a.req in
    let elapsed = t -. r.Request.ts in
    reports :=
      {
        request = r;
        finish = t;
        deadline_met = t <= r.Request.tf *. (1. +. 1e-9);
        stretch = elapsed /. (r.Request.tf -. r.Request.ts);
        mean_rate = (if elapsed > 0. then r.Request.volume /. elapsed else r.Request.max_rate);
      }
      :: !reports
  in
  let rec step () =
    match (!pending, !active) with
    | [], [] -> ()
    | _ ->
        incr events;
        let arr, rates = current_rates () in
        (* Earliest completion among active flows at current rates. *)
        let next_completion = ref infinity in
        Array.iteri
          (fun i a ->
            if rates.(i) > 0. then
              next_completion := Float.min !next_completion (!clock +. (a.remaining /. rates.(i))))
          arr;
        let next_arrival =
          match !pending with [] -> infinity | (r : Request.t) :: _ -> Float.max !clock r.ts
        in
        let t = Float.min !next_completion next_arrival in
        if not (Float.is_finite t) then
          (* No active flow can progress and nothing arrives: should be
             impossible with positive capacities; fail loudly rather than
             spin. *)
          invalid_arg "Fluid.simulate: stalled simulation"
        else begin
          (* Drain work done on [clock, t). *)
          let dt = t -. !clock in
          Array.iteri
            (fun i a -> a.remaining <- Float.max 0.0 (a.remaining -. (rates.(i) *. dt)))
            arr;
          clock := t;
          (* Complete finished flows (floating-point exact at the min). *)
          Array.iter (fun a -> if a.remaining <= 1e-9 then finish_flow a t) arr;
          (* Admit newly arrived flows. *)
          let rec admit () =
            match !pending with
            | (r : Request.t) :: rest when r.ts <= !clock +. 1e-12 ->
                pending := rest;
                active := { req = r; remaining = r.volume } :: !active;
                admit ()
            | _ -> ()
          in
          admit ();
          max_concurrency := max !max_concurrency (List.length !active);
          step ()
        end
  in
  (* Start the clock at the first arrival. *)
  (match !pending with [] -> () | r :: _ -> clock := r.Request.ts);
  step ();
  let flows =
    List.sort (fun a b -> Request.compare a.request b.request) !reports
  in
  let n = List.length flows in
  let misses = List.length (List.filter (fun f -> not f.deadline_met) flows) in
  let mean_stretch =
    if n = 0 then 0.0
    else List.fold_left (fun acc f -> acc +. f.stretch) 0.0 flows /. float_of_int n
  in
  {
    flows;
    deadline_miss_rate = (if n = 0 then 0.0 else float_of_int misses /. float_of_int n);
    mean_stretch;
    max_concurrency = !max_concurrency;
    events = !events;
  }
