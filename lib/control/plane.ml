module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Engine = Gridbw_sim.Engine
module Online = Gridbw_core.Online
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types

type config = { policy : Policy.t; hop_latency : float; decision_latency : float }

let default_config policy = { policy; hop_latency = 0.005; decision_latency = 0.001 }

(* Renegotiating a degraded reservation costs one hop to notify the
   client, one hop to re-signal the ingress router, and a decision: the
   RSVP-style exchange of section 5.4 without the egress broadcast (which
   overlaps the reply). *)
let renegotiation_delay config =
  if config.hop_latency < 0. || config.decision_latency < 0. then
    invalid_arg "Plane.renegotiation_delay: latencies must be non-negative";
  (2. *. config.hop_latency) +. config.decision_latency

type transcript = {
  request : Request.t;
  decision : Types.decision;
  decided_at : float;
  client_informed_at : float;
  messages : int;
}

type stats = {
  transcripts : transcript list;
  accepted : int;
  rejected : int;
  total_messages : int;
  mean_response_time : float;
}

let run fabric config requests =
  if config.hop_latency < 0. || config.decision_latency < 0. then
    invalid_arg "Plane.run: latencies must be non-negative";
  Policy.validate config.policy;
  Request.check_routes "Plane" fabric requests;
  let engine = Engine.create () in
  let ctl = Online.create fabric in
  let transcripts = ref [] in
  let submit (r : Request.t) =
    (* Client sends at ts; the request reaches the ingress router one hop
       later and is decided after the router's processing delay. *)
    let decide_time = r.ts +. config.hop_latency +. config.decision_latency in
    Engine.schedule engine ~time:decide_time (fun engine ->
        let decision = Online.try_admit ctl config.policy r ~at:(Engine.now engine) in
        let informed = Engine.now engine +. config.hop_latency in
        let messages =
          match decision with
          | Types.Accepted _ ->
              (* request + egress broadcast + client reply + teardown
                 when the transfer completes. *)
              4
          | Types.Rejected _ -> 2 (* request + client reply *)
        in
        transcripts :=
          { request = r; decision; decided_at = Engine.now engine;
            client_informed_at = informed; messages }
          :: !transcripts)
  in
  List.iter submit requests;
  Engine.run engine;
  let transcripts = List.sort (fun a b -> Request.compare a.request b.request) !transcripts in
  let accepted =
    List.length
      (List.filter (fun t -> match t.decision with Types.Accepted _ -> true | _ -> false)
         transcripts)
  in
  let n = List.length transcripts in
  let total_messages = List.fold_left (fun acc t -> acc + t.messages) 0 transcripts in
  let mean_response_time =
    if n = 0 then 0.0
    else
      List.fold_left (fun acc t -> acc +. (t.client_informed_at -. t.request.Request.ts)) 0.0
        transcripts
      /. float_of_int n
  in
  { transcripts; accepted; rejected = n - accepted; total_messages; mean_response_time }
