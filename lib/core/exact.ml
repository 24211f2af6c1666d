module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Ledger = Gridbw_alloc.Ledger

type solution = { count : int; accepted_ids : int list; optimal : bool; nodes : int }

(* Depth-first branch and bound over accept/reject decisions, requests
   in arrival order.  [branch chosen r descend] is the only thing a
   solver supplies: it calls [descend ()] once for each way it can
   accept [r] next to the accepted requests [chosen], and undoes
   whatever that way booked once [descend] returns.  The accept branches
   go first, so the dive reaches a good incumbent early; the reject
   branch follows, pruned with the [accepted + remaining <= best] bound.
   Past [node_budget] explored nodes the incumbent is returned with
   [optimal = false]. *)
let search ~node_budget fabric requests branch =
  Request.check_routes "Exact" fabric requests;
  let arr =
    Array.of_list
      (List.sort
         (fun (a : Request.t) (b : Request.t) ->
           match Float.compare a.ts b.ts with 0 -> Int.compare a.id b.id | c -> c)
         requests)
  in
  let n = Array.length arr in
  let best = ref 0 and best_set = ref [] and nodes = ref 0 and exhausted = ref false in
  let chosen = ref [] in
  let rec explore i accepted =
    incr nodes;
    if !nodes > node_budget then exhausted := true
    else if i = n then begin
      if accepted > !best then begin
        best := accepted;
        best_set := List.map (fun (r : Request.t) -> r.Request.id) !chosen
      end
    end
    else if accepted + (n - i) <= !best then () (* bound: cannot beat incumbent *)
    else begin
      let r = arr.(i) in
      branch !chosen r (fun () ->
          if not !exhausted then begin
            chosen := r :: !chosen;
            explore (i + 1) (accepted + 1);
            chosen := List.tl !chosen
          end);
      if not !exhausted then explore (i + 1) accepted
    end
  in
  explore 0 0;
  { count = !best; accepted_ids = List.sort Int.compare !best_set; optimal = not !exhausted;
    nodes = !nodes }

(* Accept [r] at each of [rates] in turn, from [sigma = ts], wherever the
   allocation meets the deadline and fits the ledger. *)
let at_rates ledger (r : Request.t) rates descend =
  List.iter
    (fun bw ->
      let a = Allocation.make ~request:r ~bw ~sigma:r.Request.ts in
      if Allocation.meets_deadline a && Ledger.fits ledger a then begin
        Ledger.reserve ledger a;
        descend ();
        Ledger.release ledger a
      end)
    rates

let max_requests ?(node_budget = 5_000_000) fabric requests =
  let ledger = Ledger.create fabric in
  search ~node_budget fabric requests (fun _ r ->
      at_rates ledger r [ Request.min_rate r ])

let max_requests_flexible ?(node_budget = 5_000_000) ?(levels = [ 0.0; 0.5; 1.0 ]) fabric
    requests =
  List.iter
    (fun l ->
      if l < 0. || l > 1. then invalid_arg "Exact.max_requests_flexible: levels must be in [0,1]")
    levels;
  let ledger = Ledger.create fabric in
  (* Distinct admissible rates, cheapest first: dominated duplicates
     (levels clamped to MinRate) are merged. *)
  let rates (r : Request.t) =
    List.map (fun l -> Float.max (Request.min_rate r) (l *. r.Request.max_rate)) levels
    |> List.sort_uniq Float.compare
  in
  search ~node_budget fabric requests (fun _ r -> at_rates ledger r (rates r))

(* --- malleable feasibility: bipartite max flow per port --- *)

(* Can [reqs] all ship their full volumes through one port of capacity
   [cap], each within its [ts, tf] window at rates in [0, MaxRate]?
   Classic preemptive-deadline reduction: source -> request (volume),
   request -> alive elementary segment (MaxRate * length), segment ->
   sink (cap * length); feasible iff the max flow saturates the source
   arcs.  Floats throughout with a relative tolerance — segment bounds
   are the requests' own breakpoints, so window containment is exact. *)
let port_feasible cap (reqs : Request.t array) =
  let n = Array.length reqs in
  if n = 0 then true
  else begin
    let pts =
      Array.to_list reqs
      |> List.concat_map (fun (r : Request.t) -> [ r.Request.ts; r.Request.tf ])
      |> List.sort_uniq Float.compare
    in
    let rec pair = function a :: (b :: _ as rest) -> (a, b) :: pair rest | _ -> [] in
    let segs = Array.of_list (pair pts) in
    let m = Array.length segs in
    (* nodes: 0 source | 1..n requests | n+1..n+m segments | n+m+1 sink *)
    let v = n + m + 2 in
    let sink = v - 1 in
    let cap_m = Array.make_matrix v v 0.0 in
    let total = Array.fold_left (fun acc (r : Request.t) -> acc +. r.Request.volume) 0.0 reqs in
    Array.iteri (fun i (r : Request.t) -> cap_m.(0).(1 + i) <- r.Request.volume) reqs;
    Array.iteri
      (fun j (a, b) ->
        let len = b -. a in
        cap_m.(n + 1 + j).(sink) <- cap *. len;
        Array.iteri
          (fun i (r : Request.t) ->
            if r.Request.ts <= a && b <= r.Request.tf then
              cap_m.(1 + i).(n + 1 + j) <- r.Request.max_rate *. len)
          reqs)
      segs;
    let eps = 1e-12 *. Float.max 1.0 total in
    let flow = ref 0.0 in
    let prev = Array.make v (-1) in
    let rec augment () =
      Array.fill prev 0 v (-1);
      prev.(0) <- 0;
      let q = Queue.create () in
      Queue.add 0 q;
      while (not (Queue.is_empty q)) && prev.(sink) < 0 do
        let u = Queue.pop q in
        for w = 0 to v - 1 do
          if prev.(w) < 0 && cap_m.(u).(w) > eps then begin
            prev.(w) <- u;
            Queue.add w q
          end
        done
      done;
      if prev.(sink) >= 0 then begin
        let bottleneck = ref infinity in
        let w = ref sink in
        while !w <> 0 do
          let u = prev.(!w) in
          if cap_m.(u).(!w) < !bottleneck then bottleneck := cap_m.(u).(!w);
          w := u
        done;
        let w = ref sink in
        while !w <> 0 do
          let u = prev.(!w) in
          cap_m.(u).(!w) <- cap_m.(u).(!w) -. !bottleneck;
          cap_m.(!w).(u) <- cap_m.(!w).(u) +. !bottleneck;
          w := u
        done;
        flow := !flow +. !bottleneck;
        augment ()
      end
    in
    augment ();
    !flow >= total *. (1. -. 1e-9)
  end

let max_requests_malleable ?(node_budget = 100_000) fabric requests =
  let feasible chosen =
    let through side port =
      Array.of_list (List.filter (fun (r : Request.t) -> side r = port) chosen)
    in
    let ok = ref true in
    for i = 0 to Fabric.ingress_count fabric - 1 do
      if !ok then
        ok :=
          port_feasible (Fabric.ingress_capacity fabric i)
            (through (fun (r : Request.t) -> r.Request.ingress) i)
    done;
    for e = 0 to Fabric.egress_count fabric - 1 do
      if !ok then
        ok :=
          port_feasible (Fabric.egress_capacity fabric e)
            (through (fun (r : Request.t) -> r.Request.egress) e)
    done;
    !ok
  in
  (* Feasibility is downward closed (shrink any volume to zero), so
     pruning an infeasible prefix is sound. *)
  search ~node_budget fabric requests (fun chosen r descend ->
      if feasible (r :: chosen) then descend ())

let result_of fabric requests solution =
  let module Iset = Set.Make (Int) in
  let chosen = Iset.of_list solution.accepted_ids in
  let accepted, rejected =
    List.partition_map
      (fun (r : Request.t) ->
        if Iset.mem r.id chosen then
          Left (Allocation.make ~request:r ~bw:(Request.min_rate r) ~sigma:r.ts)
        else Right (r, Types.Port_saturated))
      requests
  in
  ignore fabric;
  { Types.all = requests; accepted; rejected }
