module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Rate_profile = Gridbw_alloc.Rate_profile

type violation =
  | Port_overload of {
      side : Hotspot.side;
      port : int;
      at : float;
      usage : float;
      capacity : float;
    }
  | Deadline_miss of { request_id : int; tau : float; tf : float }
  | Rate_above_max of { request_id : int; bw : float; max_rate : float }
  | Start_before_request of { request_id : int; sigma : float; ts : float }
  | Bad_route of { request_id : int; ingress : int; egress : int }
  | Duplicate_request of { request_id : int }
  | Volume_mismatch of { request_id : int; integral : float; volume : float }

(* The ledger's relative slack. *)
let slack = 1e-9

let within used cap slack = used <= (cap *. (1. +. slack)) +. slack *. 1e-3

(* --- the capacity sweep --- *)

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

(* --- constraint set (1) --- *)

(* The port rows: one sweep per port over every interval the bookings
   hold it for ({!Replay.iter_commitments}); a booking on a port the
   fabric lacks is left to the request rows. *)
let port_rows fabric bookings =
  let iter =
    Replay.iter_commitments
      (List.filter (fun ((a : Allocation.t), _) -> Request.routed_on a.Allocation.request fabric)
         bookings)
  in
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
         (fun port p ->
           let capacity = capacity_of port in
           match sweep ~slack ~capacity:(fun _ -> capacity) p with
           | Some (at, usage) -> [ Port_overload { side; port; at; usage; capacity } ]
           | None -> [])
         (Array.to_list ports))
  in
  side Hotspot.Ingress ingress (Fabric.ingress_capacity fabric)
  @ side Hotspot.Egress egress (Fabric.egress_capacity fabric)

(* Every other row, allocation by allocation. *)
let request_rows fabric allocations =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let seen = Hashtbl.create (List.length allocations) in
  List.iter
    (fun (a : Allocation.t) ->
      let r = a.Allocation.request in
      let request_id = r.Request.id in
      if Hashtbl.mem seen request_id then add (Duplicate_request { request_id })
      else Hashtbl.replace seen request_id ();
      if not (Request.routed_on r fabric) then
        add (Bad_route { request_id; ingress = r.Request.ingress; egress = r.Request.egress });
      if a.Allocation.sigma < r.Request.ts -. 1e-12 then
        add (Start_before_request { request_id; sigma = a.Allocation.sigma; ts = r.Request.ts });
      if a.Allocation.bw > r.Request.max_rate *. (1. +. slack) then
        add (Rate_above_max { request_id; bw = a.Allocation.bw; max_rate = r.Request.max_rate });
      (* profiled (malleable) allocations: the step peak obeys the host
         cap and the Kahan integral is the volume, bit for bit *)
      (match a.Allocation.profile with
      | None -> ()
      | Some p ->
          let peak = Rate_profile.peak p in
          if peak > r.Request.max_rate *. (1. +. slack) then
            add (Rate_above_max { request_id; bw = peak; max_rate = r.Request.max_rate });
          let integral = Rate_profile.integral p in
          if integral <> r.Request.volume then
            add (Volume_mismatch { request_id; integral; volume = r.Request.volume }));
      if a.Allocation.tau > (r.Request.tf *. (1. +. slack)) +. slack then
        add (Deadline_miss { request_id; tau = a.Allocation.tau; tf = r.Request.tf }))
    allocations;
  List.rev !violations

let check_bookings fabric ~survivors bookings =
  request_rows fabric survivors @ port_rows fabric bookings

let check fabric allocations =
  check_bookings fabric ~survivors:allocations
    (List.map (fun a -> (a, Float.infinity)) allocations)

let is_valid fabric allocations = check fabric allocations = []

let describe = function
  | Port_overload { side; port; at; usage; capacity } ->
      Printf.sprintf "%s port %d overloaded at t=%.3f: %.3f > %.3f MB/s"
        (match side with Hotspot.Ingress -> "ingress" | Hotspot.Egress -> "egress")
        port at usage capacity
  | Deadline_miss { request_id; tau; tf } ->
      Printf.sprintf "request %d finishes at %.3f, after its deadline %.3f" request_id tau tf
  | Rate_above_max { request_id; bw; max_rate } ->
      Printf.sprintf "request %d granted %.3f MB/s above its host cap %.3f" request_id bw max_rate
  | Start_before_request { request_id; sigma; ts } ->
      Printf.sprintf "request %d starts at %.3f before its request time %.3f" request_id sigma ts
  | Bad_route { request_id; ingress; egress } ->
      Printf.sprintf "request %d routed on unknown ports (%d -> %d)" request_id ingress egress
  | Duplicate_request { request_id } ->
      Printf.sprintf "request %d allocated more than once" request_id
  | Volume_mismatch { request_id; integral; volume } ->
      Printf.sprintf "request %d profile integrates to %.17g, volume is %.17g" request_id integral
        volume

let report fabric allocations =
  match check fabric allocations with
  | [] -> "schedule is feasible"
  | vs ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf (Printf.sprintf "%d violation(s):\n" (List.length vs));
      List.iter (fun v -> Buffer.add_string buf ("  - " ^ describe v ^ "\n")) vs;
      Buffer.contents buf
