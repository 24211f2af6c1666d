module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Types = Gridbw_core.Types
module Validate = Gridbw_metrics.Validate
module Hotspot = Gridbw_metrics.Hotspot
module Fault = Gridbw_fault.Fault
module Injector = Gridbw_fault.Injector
module Replay = Gridbw_metrics.Replay

type violation = Inconsistent of string | Infeasible of Validate.violation

let describe = function
  | Inconsistent msg -> "inconsistent decision stream: " ^ msg
  | Infeasible v -> Validate.describe v

(* The naive statement of {!Validate.port_sweep}: usage at an instant is
   a plain sum over every interval covering it, probed at every
   endpoint.  Quadratic; only the tests call it. *)
let port_overloads ~slack ?(probes = []) ~capacity intervals =
  let within used cap = used <= (cap *. (1. +. slack)) +. slack *. 1e-3 in
  let usage_at t =
    List.fold_left (fun acc (f, u, bw) -> if f <= t && t < u then acc +. bw else acc) 0.0 intervals
  in
  List.concat_map (fun (f, u, _) -> [ f; u ]) intervals @ probes
  |> List.sort_uniq Float.compare
  |> List.fold_left
       (fun worst t ->
         let u = usage_at t in
         if within u (capacity t) then worst
         else match worst with Some (_, w) when w >= u -> worst | _ -> Some (t, u))
       None

let audit_allocations fabric allocations =
  List.map (fun v -> Infeasible v) (Validate.check fabric allocations)

let audit fabric ~trace (result : Types.result) =
  let ids l = List.sort Int.compare (List.map (fun (r : Request.t) -> r.Request.id) l) in
  let bookkeeping =
    if ids trace <> ids result.Types.all then
      [ Inconsistent "result.all does not carry the trace's request ids" ]
    else if not (Types.is_consistent result) then
      [ Inconsistent "accepted/rejected do not partition the trace" ]
    else []
  in
  bookkeeping @ audit_allocations fabric result.Types.accepted

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
  let side side count port_of =
    let fault_side =
      match side with Hotspot.Ingress -> Fault.Ingress | Hotspot.Egress -> Fault.Egress
    in
    List.concat
      (List.init count (fun port ->
           let intervals =
             List.filter_map
               (fun (s : Injector.service) ->
                 if port_of s = port then
                   Some (s.Injector.s_from, s.Injector.s_until, s.Injector.s_bw)
                 else None)
               services
           in
           (* the port's capacity changes only at its own degrade endpoints *)
           let probes =
             List.concat_map
               (function
                 | Fault.Degrade { side = s; port = p; from_; until; _ }
                   when s = fault_side && p = port ->
                     [ from_; until ]
                 | _ -> [])
               script
           in
           let capacity = capacity_at fabric script side port in
           match Validate.port_sweep ~slack ~probes ~capacity intervals with
           | Some (at, usage) ->
               [ Validate.Port_overload { side; port; at; usage; capacity = capacity at } ]
           | None -> []))
  in
  side Hotspot.Ingress (Fabric.ingress_count fabric) (fun s -> s.Injector.s_ingress)
  @ side Hotspot.Egress (Fabric.egress_count fabric) (fun s -> s.Injector.s_egress)

(* --- recovered journals --- *)

module Store = Gridbw_store.Store

type verdict = Clean of int | Skipped of string | Failed of string list

let audit_recovered (r : Store.recovered) =
  let j = r.Store.journal in
  if j.Replay.revised then
    Skipped
      "store journal carries capacity revisions or sheds (fault-injector run); not a daemon \
       journal"
  else begin
    let failures =
      List.map Validate.describe
        (Validate.check_bookings j.Replay.fabric ~survivors:j.Replay.survivors j.Replay.bookings)
    in
    if failures = [] then Clean (List.length j.Replay.survivors) else Failed failures
  end

let refusal = function
  | Clean _ -> None
  | Skipped why -> Some why
  | Failed failures -> Some ("recovered journal fails its audit: " ^ String.concat "; " failures)
