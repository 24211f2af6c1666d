module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Policy = Gridbw_core.Policy
module Event_queue = Gridbw_sim.Event_queue

type result = {
  total : int;
  accepted : int;
  accept_rate : float;
  egress_violations : int;
  peak_overbooking : float;
  gossip_rounds : int;
}

type release = { ingress : int; egress : int; bw : float }

let run fabric policy ~gossip_interval requests =
  if gossip_interval < 0. then invalid_arg "Distributed.run: negative gossip interval";
  Policy.validate policy;
  Request.check_routes "Distributed" fabric requests;
  let m = Fabric.ingress_count fabric and n = Fabric.egress_count fabric in
  (* Ground truth (what the network actually carries). *)
  let true_in = Array.make m 0.0 and true_out = Array.make n 0.0 in
  (* Per-router stale view of the egress counters plus own recent grants. *)
  let snapshot = Array.make_matrix m n 0.0 in
  let own_since_snapshot = Array.make_matrix m n 0.0 in
  let releases : release Event_queue.t = Event_queue.create () in
  let last_gossip = ref neg_infinity and gossip_rounds = ref 0 in
  let accepted = ref 0 and violations = ref 0 and peak = ref 0.0 in
  let drain_releases now =
    let rec loop () =
      match Event_queue.peek releases with
      | Some (tau, rel) when tau <= now ->
          ignore (Event_queue.pop releases);
          true_in.(rel.ingress) <- Float.max 0.0 (true_in.(rel.ingress) -. rel.bw);
          true_out.(rel.egress) <- Float.max 0.0 (true_out.(rel.egress) -. rel.bw);
          loop ()
      | _ -> ()
    in
    loop ()
  in
  let gossip now =
    if gossip_interval = 0. || now -. !last_gossip >= gossip_interval then begin
      last_gossip := now;
      incr gossip_rounds;
      for i = 0 to m - 1 do
        for e = 0 to n - 1 do
          snapshot.(i).(e) <- true_out.(e);
          own_since_snapshot.(i).(e) <- 0.0
        done
      done
    end
  in
  let ordered =
    List.sort
      (fun (a : Request.t) (b : Request.t) ->
        match Float.compare a.ts b.ts with 0 -> Int.compare a.id b.id | c -> c)
      requests
  in
  List.iter
    (fun (r : Request.t) ->
      drain_releases r.ts;
      gossip r.ts;
      match Policy.assign policy r ~now:r.ts with
      | None -> ()
      | Some bw ->
          let i = r.ingress and e = r.egress in
          let local_ok = true_in.(i) +. bw <= Fabric.ingress_capacity fabric i *. (1. +. 1e-9) in
          let believed_egress = snapshot.(i).(e) +. own_since_snapshot.(i).(e) in
          let egress_ok = believed_egress +. bw <= Fabric.egress_capacity fabric e *. (1. +. 1e-9) in
          if local_ok && egress_ok then begin
            incr accepted;
            true_in.(i) <- true_in.(i) +. bw;
            true_out.(e) <- true_out.(e) +. bw;
            own_since_snapshot.(i).(e) <- own_since_snapshot.(i).(e) +. bw;
            let over = true_out.(e) /. Fabric.egress_capacity fabric e in
            if over > !peak then peak := over;
            if over > 1. +. 1e-9 then incr violations;
            Event_queue.push releases ~time:(r.ts +. (r.volume /. bw)) { ingress = i; egress = e; bw }
          end)
    ordered;
  let total = List.length requests in
  {
    total;
    accepted = !accepted;
    accept_rate = (if total = 0 then 0.0 else float_of_int !accepted /. float_of_int total);
    egress_violations = !violations;
    peak_overbooking = !peak;
    gossip_rounds = !gossip_rounds;
  }
