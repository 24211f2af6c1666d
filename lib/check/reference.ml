module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Types = Gridbw_core.Types
module Validate = Gridbw_metrics.Validate
module Hotspot = Gridbw_metrics.Hotspot
module Fault = Gridbw_fault.Fault
module Injector = Gridbw_fault.Injector
module Rate_profile = Gridbw_alloc.Rate_profile
module Replay = Gridbw_metrics.Replay

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

let within used cap slack = used <= (cap *. (1. +. slack)) +. slack *. 1e-3

(* --- the capacity check --- *)

(* One port's intervals, each holding it over [from, until) at [bw]; a
   probe is an empty one at the instant it probes. *)
type port = {
  mutable from_ : float array;
  mutable until : float array;
  mutable bw : float array;
  mutable len : int;
}

let port n = { from_ = Array.make n 0.; until = Array.make n 0.; bw = Array.make n 0.; len = 0 }

let push p from_ until bw =
  p.from_.(p.len) <- from_;
  p.until.(p.len) <- until;
  p.bw.(p.len) <- bw;
  p.len <- p.len + 1

(* A zero-length interval never holds the port. *)
let push_interval p from_ until bw = if from_ < until then push p from_ until bw

(* Put the intervals in time order of their starts; logged in decision
   order, they usually are already. *)
let by_start p =
  let n = p.len in
  let rec ordered k = k >= n || (p.from_.(k - 1) <= p.from_.(k) && ordered (k + 1)) in
  if not (ordered 1) then begin
    let order = Array.init n Fun.id in
    Array.stable_sort (fun a b -> Float.compare p.from_.(a) p.from_.(b)) order;
    let permute a = Array.map (fun i -> a.(i)) order in
    p.from_ <- permute p.from_;
    p.until <- permute p.until;
    p.bw <- permute p.bw
  end

(* The intervals holding the port, by index: a binary min-heap on their
   ends, so only the few intervals held at once are ever ordered; one
   sort of every start and end delta is less code but doubled the
   restart audit's time.  Not [Gridbw_sim.Event_queue], which allocates
   an entry per push and an option per pop: after recovery the heap is
   large, and that garbage cost the restart audit a third more time. *)
type held = { mutable heap : int array; mutable size : int }

let hold p h k =
  if h.size = Array.length h.heap then h.heap <- Array.append h.heap h.heap;
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && p.until.(h.heap.((!i - 1) / 2)) > p.until.(k) do
    h.heap.(!i) <- h.heap.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  h.heap.(!i) <- k

(* Drop the one that ends first. *)
let release p h =
  h.size <- h.size - 1;
  let k = h.heap.(h.size) in
  let i = ref 0 and child = ref 1 in
  while !child < h.size do
    if !child + 1 < h.size && p.until.(h.heap.(!child + 1)) < p.until.(h.heap.(!child)) then
      incr child;
    if p.until.(h.heap.(!child)) < p.until.(k) then begin
      h.heap.(!i) <- h.heap.(!child);
      i := !child;
      child := (2 * !i) + 1
    end
    else child := h.size
  done;
  h.heap.(!i) <- k

(* A compensated running sum (Neumaier's): [err] keeps what each
   addition rounded away, so what an end takes off is what its start
   put on. *)
type usage = { mutable sum : float; mutable err : float }

let add u x =
  let s = u.sum +. x in
  u.err <- (u.err +. if Float.abs u.sum >= Float.abs x then u.sum -. s +. x else x -. s +. u.sum);
  u.sum <- s

(* Usage is piecewise constant and right-continuous, so its worst
   excess is reached where an interval starts or capacity changes: past
   an end alone, usage has only fallen since the last such instant.  At
   each start, every start there and every end up to it is applied
   before the usage is read. *)
let sweep ~slack ~capacity p =
  by_start p;
  let held = { heap = Array.make 16 0; size = 0 } in
  let usage = { sum = 0.; err = 0. } and worst = ref None and i = ref 0 in
  while !i < p.len do
    let t = p.from_.(!i) in
    while !i < p.len && Float.equal p.from_.(!i) t do
      add usage p.bw.(!i);
      if p.until.(!i) > t then hold p held !i;
      incr i
    done;
    while held.size > 0 && p.until.(held.heap.(0)) <= t do
      add usage (-.p.bw.(held.heap.(0)));
      release p held
    done;
    let u = usage.sum +. usage.err in
    if not (within u (capacity t) slack) then
      match !worst with Some (_, w) when w >= u -> () | _ -> worst := Some (t, u)
  done;
  !worst

let port_sweep ~slack ?(probes = []) ~capacity intervals =
  let p = port (List.length probes + List.length intervals) in
  List.iter (fun t -> push p t t 0.) probes;
  List.iter (fun (f, u, bw) -> push_interval p f u bw) intervals;
  sweep ~slack ~capacity p

(* The naive statement of the same check: usage at an instant is a
   plain sum over every interval covering it, probed at every endpoint.
   Quadratic; only the tests call it. *)
let port_overloads ~slack ?(probes = []) ~capacity intervals =
  let usage_at t =
    List.fold_left (fun acc (f, u, bw) -> if f <= t && t < u then acc +. bw else acc) 0.0 intervals
  in
  List.concat_map (fun (f, u, _) -> [ f; u ]) intervals @ probes
  |> List.sort_uniq Float.compare
  |> List.fold_left
       (fun worst t ->
         let u = usage_at t in
         if within u (capacity t) slack then worst
         else match worst with Some (_, w) when w >= u -> worst | _ -> Some (t, u))
       None

(* The port rows of constraint set (1): [iter f] calls [f request from
   until bw] for every interval a booking holds its two ports for; every
   route must be valid. *)
let port_violations ~slack fabric iter =
  let n_in = Array.make (Fabric.ingress_count fabric) 0
  and n_out = Array.make (Fabric.egress_count fabric) 0 in
  iter (fun (r : Request.t) _ _ _ ->
      n_in.(r.Request.ingress) <- n_in.(r.Request.ingress) + 1;
      n_out.(r.Request.egress) <- n_out.(r.Request.egress) + 1);
  let ingress = Array.map port n_in and egress = Array.map port n_out in
  iter (fun (r : Request.t) from_ until bw ->
      push_interval ingress.(r.Request.ingress) from_ until bw;
      push_interval egress.(r.Request.egress) from_ until bw);
  let side side ports capacity_of =
    List.concat
      (List.mapi
         (fun port e ->
           let capacity = capacity_of port in
           match sweep ~slack ~capacity:(fun _ -> capacity) e with
           | Some (at, usage) -> [ Port_overload { side; port; at; usage; capacity } ]
           | None -> [])
         (Array.to_list ports))
  in
  side Hotspot.Ingress ingress (Fabric.ingress_capacity fabric)
  @ side Hotspot.Egress egress (Fabric.egress_capacity fabric)

(* Every row of constraint set (1) but the port rows. *)
let request_violations ~slack fabric allocations =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let seen = Hashtbl.create (List.length allocations) in
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
  List.rev !violations

let audit_allocations ?(slack = 1e-9) fabric allocations =
  let routed (a : Allocation.t) =
    let r = a.Allocation.request in
    Fabric.valid_ingress fabric r.Request.ingress && Fabric.valid_egress fabric r.Request.egress
  in
  request_violations ~slack fabric allocations
  @ port_violations ~slack fabric
      (Replay.iter_commitments
         (List.filter_map
            (fun a -> if routed a then Some (a, Float.infinity) else None)
            allocations))

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
           match port_sweep ~slack ~probes ~capacity intervals with
           | Some (at, usage) ->
               [ Port_overload { side; port; at; usage; capacity = capacity at } ]
           | None -> []))
  in
  side Hotspot.Ingress (Fabric.ingress_count fabric) (fun s -> s.Injector.s_ingress)
  @ side Hotspot.Egress (Fabric.egress_count fabric) (fun s -> s.Injector.s_egress)

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

type verdict = Clean of int | Skipped of string | Failed of string list

let audit_recovered (r : Store.recovered) =
  let j = r.Store.journal in
  if j.Replay.revised then
    Skipped
      "store journal carries capacity revisions or sheds (fault-injector run); not a daemon \
       journal"
  else begin
    let slack = 1e-9 in
    let failures =
      List.map describe
        (request_violations ~slack j.Replay.fabric j.Replay.survivors
        @ port_violations ~slack j.Replay.fabric
            (Replay.iter_commitments j.Replay.bookings))
    in
    if failures = [] then Clean (List.length j.Replay.survivors) else Failed failures
  end

let refusal = function
  | Clean _ -> None
  | Skipped why -> Some why
  | Failed failures -> Some ("recovered journal fails its audit: " ^ String.concat "; " failures)
