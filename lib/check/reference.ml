module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Types = Gridbw_core.Types
module Validate = Gridbw_metrics.Validate
module Hotspot = Gridbw_metrics.Hotspot
module Fault = Gridbw_fault.Fault
module Injector = Gridbw_fault.Injector
module Rate_profile = Gridbw_alloc.Rate_profile

type side = Hotspot.side

type violation =
  | Inconsistent of string
  | Bad_route of { id : int; ingress : int; egress : int }
  | Early_start of { id : int; sigma : float; ts : float }
  | Rate_above_cap of { id : int; bw : float; max_rate : float }
  | Deadline_miss of { id : int; tau : float; tf : float }
  | Duplicate of { id : int }
  | Port_overload of { side : side; port : int; at : float; usage : float; capacity : float }
  | Volume_mismatch of { id : int; integral : float; volume : float }

(* Deliberately naive interval arithmetic: usage at an instant is a plain
   sum over every allocation covering it, and the sweep probes every
   interval endpoint.  Piecewise-constant right-continuous usage attains
   its maximum at an endpoint, so probing endpoints is exhaustive. *)

let within used cap slack = used <= (cap *. (1. +. slack)) +. slack *. 1e-3

let port_overloads ~slack ~capacity intervals =
  (* [intervals]: (from, until, bw) commitments of one port. *)
  let probes = List.concat_map (fun (f, u, _) -> [ f; u ]) intervals in
  let usage_at t =
    List.fold_left (fun acc (f, u, bw) -> if f <= t && t < u then acc +. bw else acc) 0.0 intervals
  in
  List.fold_left
    (fun worst t ->
      let u = usage_at t in
      if within u capacity slack then worst
      else
        match worst with Some (_, w) when w >= u -> worst | _ -> Some (t, u))
    None probes

let audit_allocations ?(slack = 1e-9) fabric allocations =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (a : Allocation.t) ->
      let r = a.Allocation.request in
      let id = r.Request.id in
      if Hashtbl.mem seen id then add (Duplicate { id }) else Hashtbl.replace seen id ();
      if
        not
          (Fabric.valid_ingress fabric r.Request.ingress
          && Fabric.valid_egress fabric r.Request.egress)
      then add (Bad_route { id; ingress = r.Request.ingress; egress = r.Request.egress });
      if a.Allocation.sigma < r.Request.ts -. 1e-12 then
        add (Early_start { id; sigma = a.Allocation.sigma; ts = r.Request.ts });
      if a.Allocation.bw > r.Request.max_rate *. (1. +. slack) then
        add (Rate_above_cap { id; bw = a.Allocation.bw; max_rate = r.Request.max_rate });
      (* profiled (malleable) allocations: the step peak obeys the host
         cap and the Kahan integral is the volume, bit for bit *)
      (match a.Allocation.profile with
      | None -> ()
      | Some p ->
          let peak = Rate_profile.peak p in
          if peak > r.Request.max_rate *. (1. +. slack) then
            add (Rate_above_cap { id; bw = peak; max_rate = r.Request.max_rate });
          let integral = Rate_profile.integral p in
          if integral <> r.Request.volume then
            add (Volume_mismatch { id; integral; volume = r.Request.volume }));
      if a.Allocation.tau > (r.Request.tf *. (1. +. slack)) +. slack then
        add (Deadline_miss { id; tau = a.Allocation.tau; tf = r.Request.tf }))
    allocations;
  let routed =
    List.filter
      (fun (a : Allocation.t) ->
        let r = a.Allocation.request in
        Fabric.valid_ingress fabric r.Request.ingress && Fabric.valid_egress fabric r.Request.egress)
      allocations
  in
  let commitments (a : Allocation.t) =
    match a.Allocation.profile with
    | Some p ->
        List.map
          (fun (s : Rate_profile.seg) ->
            (s.Rate_profile.from_, s.Rate_profile.until, s.Rate_profile.rate))
          (Rate_profile.segments p)
    | None -> [ (a.Allocation.sigma, a.Allocation.tau, a.Allocation.bw) ]
  in
  let sweep side count capacity_of port_of =
    for port = 0 to count - 1 do
      let intervals =
        List.concat_map
          (fun (a : Allocation.t) ->
            if port_of a.Allocation.request = port then commitments a else [])
          routed
      in
      match port_overloads ~slack ~capacity:(capacity_of port) intervals with
      | Some (at, usage) ->
          add (Port_overload { side; port; at; usage; capacity = capacity_of port })
      | None -> ()
    done
  in
  sweep Hotspot.Ingress (Fabric.ingress_count fabric)
    (Fabric.ingress_capacity fabric)
    (fun r -> r.Request.ingress);
  sweep Hotspot.Egress (Fabric.egress_count fabric)
    (Fabric.egress_capacity fabric)
    (fun r -> r.Request.egress);
  List.rev !violations

let audit ?slack fabric ~trace (result : Types.result) =
  let ids l = List.sort Int.compare (List.map (fun (r : Request.t) -> r.Request.id) l) in
  let bookkeeping =
    if ids trace <> ids result.Types.all then
      [ Inconsistent "result.all does not carry the trace's request ids" ]
    else if not (Types.is_consistent result) then
      [ Inconsistent "accepted/rejected do not partition the trace" ]
    else []
  in
  bookkeeping @ audit_allocations ?slack fabric result.Types.accepted

(* --- capacity under revisions --- *)

(* Must match the injector's residual for full outages (factor = 0). *)
let outage_floor = 1e-6

let capacity_at fabric script side port t =
  let nominal =
    match side with
    | Hotspot.Ingress -> Fabric.ingress_capacity fabric port
    | Hotspot.Egress -> Fabric.egress_capacity fabric port
  in
  let fault_side = match side with Hotspot.Ingress -> Fault.Ingress | Hotspot.Egress -> Fault.Egress in
  List.fold_left
    (fun cap ev ->
      match ev with
      | Fault.Degrade { side = s; port = p; factor; from_; until }
        when s = fault_side && p = port && from_ <= t && t < until ->
          Float.max (factor *. nominal) outage_floor
      | _ -> cap)
    nominal script

let audit_services ?(slack = 1e-9) fabric script (services : Injector.service list) =
  let probes =
    List.concat_map (fun (s : Injector.service) -> [ s.Injector.s_from; s.Injector.s_until ]) services
    @ List.concat_map
        (function Fault.Degrade { from_; until; _ } -> [ from_; until ] | _ -> [])
        script
    |> List.sort_uniq Float.compare
  in
  let violations = ref [] in
  let sweep side count port_of =
    for port = 0 to count - 1 do
      let worst =
        List.fold_left
          (fun worst t ->
            let usage =
              List.fold_left
                (fun acc (s : Injector.service) ->
                  if port_of s = port && s.Injector.s_from <= t && t < s.Injector.s_until then
                    acc +. s.Injector.s_bw
                  else acc)
                0.0 services
            in
            let cap = capacity_at fabric script side port t in
            if within usage cap slack then worst
            else match worst with Some (_, _, w) when w >= usage -> worst | _ -> Some (t, cap, usage))
          None probes
      in
      match worst with
      | Some (at, capacity, usage) ->
          violations := Port_overload { side; port; at; usage; capacity } :: !violations
      | None -> ()
    done
  in
  sweep Hotspot.Ingress (Fabric.ingress_count fabric) (fun s -> s.Injector.s_ingress);
  sweep Hotspot.Egress (Fabric.egress_count fabric) (fun s -> s.Injector.s_egress);
  List.rev !violations

(* --- oracle-vs-oracle agreement --- *)

let same_constraint (v : Validate.violation) (w : violation) =
  match (v, w) with
  | Validate.Port_overload { side; port; _ }, Port_overload { side = s; port = p; _ } ->
      side = s && port = p
  | Validate.Deadline_miss { request_id; _ }, Deadline_miss { id; _ } -> request_id = id
  | Validate.Rate_above_max { request_id; _ }, Rate_above_cap { id; _ } -> request_id = id
  | Validate.Start_before_request { request_id; _ }, Early_start { id; _ } -> request_id = id
  | Validate.Bad_route { request_id; _ }, Bad_route { id; _ } -> request_id = id
  | Validate.Duplicate_request { request_id }, Duplicate { id } -> request_id = id
  | Validate.Volume_mismatch { request_id; _ }, Volume_mismatch { id; _ } -> request_id = id
  | _ -> false

let agrees vs ws =
  let ws' = List.filter (function Inconsistent _ -> false | _ -> true) ws in
  List.for_all (fun v -> List.exists (same_constraint v) ws') vs
  && List.for_all (fun w -> List.exists (fun v -> same_constraint v w) vs) ws'

let pp_violation ppf = function
  | Inconsistent msg -> Format.fprintf ppf "inconsistent decision stream: %s" msg
  | Bad_route { id; ingress; egress } ->
      Format.fprintf ppf "request %d routed on unknown ports (%d -> %d)" id ingress egress
  | Early_start { id; sigma; ts } ->
      Format.fprintf ppf "request %d starts at %.3f before its request time %.3f" id sigma ts
  | Rate_above_cap { id; bw; max_rate } ->
      Format.fprintf ppf "request %d granted %.3f MB/s above its host cap %.3f" id bw max_rate
  | Deadline_miss { id; tau; tf } ->
      Format.fprintf ppf "request %d finishes at %.3f, after its deadline %.3f" id tau tf
  | Duplicate { id } -> Format.fprintf ppf "request %d allocated more than once" id
  | Port_overload { side; port; at; usage; capacity } ->
      Format.fprintf ppf "%s port %d overloaded at t=%.3f: %.3f > %.3f MB/s"
        (match side with Hotspot.Ingress -> "ingress" | Hotspot.Egress -> "egress")
        port at usage capacity
  | Volume_mismatch { id; integral; volume } ->
      Format.fprintf ppf "request %d profile integrates to %.17g, volume is %.17g" id integral
        volume

let describe v = Format.asprintf "%a" pp_violation v

(* --- recovered journals --- *)

module Store = Gridbw_store.Store
module Replay = Gridbw_metrics.Replay
module Ledger = Gridbw_alloc.Ledger

type verdict = Clean of int | Skipped of string | Failed of string list

let audit_recovered (r : Store.recovered) =
  let j = r.Store.journal in
  if j.Replay.revised then
    Skipped
      "store journal carries capacity revisions or sheds (fault-injector run); not a daemon \
       journal"
  else begin
    let failures =
      List.map describe (audit_allocations j.Replay.fabric j.Replay.survivors)
      @
      if Ledger.within_capacity (Store.ledger r.Store.store) then []
      else [ "recovered ledger exceeds capacity" ]
    in
    if failures = [] then Clean (List.length j.Replay.survivors) else Failed failures
  end

let refusal = function
  | Clean _ -> None
  | Skipped why -> Some why
  | Failed failures -> Some ("recovered journal fails its audit: " ^ String.concat "; " failures)
