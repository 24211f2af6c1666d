module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request

type t = { name : string; run : ?ctx:Runtime.ctx -> Fabric.t -> Request.t list -> Types.result }

let name t = t.name
let run ?ctx t fabric requests = t.run ?ctx fabric requests
let make ~name run = { name; run }

let of_rigid kind =
  make ~name:(Rigid.heuristic_name kind) (fun ?ctx fabric requests ->
      Rigid.run ?ctx kind fabric requests)

let of_flexible kind policy =
  make
    ~name:(Printf.sprintf "%s/%s" (Flexible.heuristic_name kind) (Policy.name policy))
    (fun ?ctx fabric requests -> Flexible.run ?ctx kind fabric policy requests)

let rigid_all = List.map of_rigid [ `Fcfs; `Fifo_blocking; `Slots Rigid.Cumulated; `Slots Rigid.Min_bw; `Slots Rigid.Min_vol ]

let flexible_all ?(policy = Policy.Min_rate) ?(step = 400.) () =
  List.map (fun kind -> of_flexible kind policy) [ `Greedy; `Window step; `Window_deferred step ]

let shipped ?(step = 400.) () =
  rigid_all @ flexible_all ~step ()
  @ flexible_all ~policy:(Policy.Fraction_of_max 0.8) ~step ()

let find schedulers n = List.find_opt (fun s -> String.equal (name s) n) schedulers
