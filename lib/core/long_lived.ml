module Fabric = Gridbw_topology.Fabric
module Live = Gridbw_alloc.Live
module Dinic = Gridbw_flow.Dinic

type request = { id : int; ingress : int; egress : int; bw : float }

let request ~id ~ingress ~egress ~bw =
  if bw <= 0. || not (Float.is_finite bw) then
    invalid_arg "Long_lived.request: bandwidth must be positive and finite";
  { id; ingress; egress; bw }

type result = { accepted : request list; rejected : request list }

let accepted_ids r = List.map (fun q -> q.id) r.accepted |> List.sort Int.compare

let check_routing fabric requests =
  List.iter
    (fun r ->
      Gridbw_request.Request.check_route "Long_lived" fabric ~id:r.id ~ingress:r.ingress
        ~egress:r.egress)
    requests

let feasible fabric requests =
  check_routing fabric requests;
  let live = Live.create fabric in
  List.iter (fun r -> Live.grab live ~ingress:r.ingress ~egress:r.egress ~bw:r.bw) requests;
  let ok = ref true in
  for i = 0 to Fabric.ingress_count fabric - 1 do
    if Live.ingress_used live i > Fabric.ingress_capacity fabric i *. (1. +. 1e-9) then ok := false
  done;
  for e = 0 to Fabric.egress_count fabric - 1 do
    if Live.egress_used live e > Fabric.egress_capacity fabric e *. (1. +. 1e-9) then ok := false
  done;
  !ok

let by_id = List.sort (fun a b -> Int.compare a.id b.id)

let optimal_uniform fabric ~bw requests =
  if bw <= 0. then invalid_arg "Long_lived.optimal_uniform: bandwidth must be positive";
  check_routing fabric requests;
  List.iter
    (fun r ->
      if Float.abs (r.bw -. bw) > 1e-9 *. bw then
        invalid_arg "Long_lived.optimal_uniform: non-uniform request bandwidth")
    requests;
  let m = Fabric.ingress_count fabric and n = Fabric.egress_count fabric in
  (* Vertices: 0 = source, 1 = sink, 2..2+m-1 = ingress, then egress. *)
  let source = 0 and sink = 1 in
  let ingress_vertex i = 2 + i and egress_vertex e = 2 + m + e in
  let g = Dinic.create ~vertices:(2 + m + n) in
  let slots cap = int_of_float (Float.floor ((cap /. bw) *. (1. +. 1e-9))) in
  for i = 0 to m - 1 do
    ignore
      (Dinic.add_edge g ~src:source ~dst:(ingress_vertex i)
         ~capacity:(slots (Fabric.ingress_capacity fabric i)))
  done;
  for e = 0 to n - 1 do
    ignore
      (Dinic.add_edge g ~src:(egress_vertex e) ~dst:sink
         ~capacity:(slots (Fabric.egress_capacity fabric e)))
  done;
  let edge_of =
    List.map
      (fun r ->
        (r, Dinic.add_edge g ~src:(ingress_vertex r.ingress) ~dst:(egress_vertex r.egress)
              ~capacity:1))
      requests
  in
  ignore (Dinic.max_flow g ~source ~sink);
  let accepted, rejected =
    List.partition_map
      (fun (r, edge) -> if Dinic.flow_on g edge > 0 then Left r else Right r)
      edge_of
  in
  { accepted = by_id accepted; rejected = by_id rejected }

let greedy fabric requests =
  check_routing fabric requests;
  let live = Live.create fabric in
  let order =
    List.sort
      (fun a b -> match Float.compare a.bw b.bw with 0 -> Int.compare a.id b.id | c -> c)
      requests
  in
  let accepted, rejected =
    List.partition_map
      (fun r ->
        if Live.try_grab live ~ingress:r.ingress ~egress:r.egress ~bw:r.bw then Left r
        else Right r)
      order
  in
  { accepted = by_id accepted; rejected = by_id rejected }

let exact ?(node_budget = 2_000_000) fabric requests =
  check_routing fabric requests;
  let arr = Array.of_list requests in
  let n = Array.length arr in
  let live = Live.create fabric in
  let best = ref 0 and best_set = ref [] and chosen = ref [] in
  let nodes = ref 0 and exhausted = ref false in
  let rec explore i accepted =
    incr nodes;
    if !nodes > node_budget then exhausted := true
    else if i = n then begin
      if accepted > !best then begin
        best := accepted;
        best_set := !chosen
      end
    end
    else if accepted + (n - i) <= !best then ()
    else begin
      let r = arr.(i) in
      if Live.try_grab live ~ingress:r.ingress ~egress:r.egress ~bw:r.bw then begin
        chosen := r.id :: !chosen;
        explore (i + 1) (accepted + 1);
        chosen := List.tl !chosen;
        Live.release live ~ingress:r.ingress ~egress:r.egress ~bw:r.bw
      end;
      if not !exhausted then explore (i + 1) accepted
    end
  in
  explore 0 0;
  (!best, List.sort Int.compare !best_set, not !exhausted)
