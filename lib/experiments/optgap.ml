module Table = Gridbw_report.Table
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Policy = Gridbw_core.Policy
module Scheduler = Gridbw_core.Scheduler
module Exact = Gridbw_core.Exact
module Types = Gridbw_core.Types
module Spec = Gridbw_workload.Spec
module Rng = Gridbw_prng.Rng

type row = {
  heuristic : string;
  mean_ratio : float;
  worst_ratio : float;
  optimal_instances : int;
  instances : int;
}

let random_instance rng fabric n =
  List.init n (fun id ->
      let ingress = Rng.int rng (Fabric.ingress_count fabric) in
      let egress = Rng.int rng (Fabric.egress_count fabric) in
      let ts = Rng.float_in rng 0. 30. in
      let dur = Rng.float_in rng 2. 20. in
      Request.make_rigid ~id ~ingress ~egress ~bw:(Rng.float_in rng 20. 90.) ~ts ~tf:(ts +. dur))

let run ?(instances = 12) ?(requests_per_instance = 14) (params : Runner.params) =
  let fabric = Fabric.uniform ~ingress_count:2 ~egress_count:2 ~capacity:100.0 in
  let rng = Rng.create ~seed:params.Runner.seed () in
  let ratios = Hashtbl.create 8 in
  List.iter (fun (name, _) -> Hashtbl.replace ratios name []) Runner.rigid_schedulers;
  for _ = 1 to instances do
    let reqs = random_instance rng fabric requests_per_instance in
    let optimum = (Exact.max_requests fabric reqs).Exact.count in
    if optimum > 0 then
      List.iter
        (fun (name, sched) ->
          let got = List.length (Scheduler.run sched fabric reqs).Types.accepted in
          let ratio = float_of_int got /. float_of_int optimum in
          Hashtbl.replace ratios name (ratio :: Hashtbl.find ratios name))
        Runner.rigid_schedulers
  done;
  List.map
    (fun (name, _) ->
      let rs = Hashtbl.find ratios name in
      let n = List.length rs in
      {
        heuristic = name;
        mean_ratio =
          (if n = 0 then 0.0 else List.fold_left ( +. ) 0.0 rs /. float_of_int n);
        worst_ratio = List.fold_left Float.min 1.0 rs;
        optimal_instances = List.length (List.filter (fun r -> r >= 1.0 -. 1e-9) rs);
        instances = n;
      })
    Runner.rigid_schedulers

let random_flexible_instance rng fabric n =
  List.init n (fun id ->
      let ingress = Rng.int rng (Fabric.ingress_count fabric) in
      let egress = Rng.int rng (Fabric.egress_count fabric) in
      let ts = Rng.float_in rng 0. 30. in
      let max_rate = Rng.float_in rng 20. 90. in
      let volume = Rng.float_in rng 50. 600. in
      let slack = Rng.float_in rng 1. 3. in
      Request.make ~id ~ingress ~egress ~volume ~ts
        ~tf:(ts +. (slack *. volume /. max_rate))
        ~max_rate)

let run_flexible ?(instances = 10) ?(requests_per_instance = 12) (params : Runner.params) =
  let fabric = Fabric.uniform ~ingress_count:2 ~egress_count:2 ~capacity:100.0 in
  let rng = Rng.create ~seed:params.Runner.seed () in
  let contenders =
    [
      ("GREEDY min-bw", Scheduler.of_flexible `Greedy Policy.Min_rate);
      ("GREEDY f=1", Scheduler.of_flexible `Greedy (Policy.Fraction_of_max 1.0));
      ("WINDOW(10) min-bw", Scheduler.of_flexible (`Window 10.) Policy.Min_rate);
      ("WINDOW(10) f=1", Scheduler.of_flexible (`Window 10.) (Policy.Fraction_of_max 1.0));
    ]
  in
  let ratios = Hashtbl.create 8 in
  List.iter (fun (name, _) -> Hashtbl.replace ratios name []) contenders;
  for _ = 1 to instances do
    let reqs = random_flexible_instance rng fabric requests_per_instance in
    let optimum = (Exact.max_requests_flexible fabric reqs).Exact.count in
    if optimum > 0 then
      List.iter
        (fun (name, sched) ->
          let got = List.length (Scheduler.run sched fabric reqs).Types.accepted in
          let ratio = float_of_int got /. float_of_int optimum in
          Hashtbl.replace ratios name (ratio :: Hashtbl.find ratios name))
        contenders
  done;
  List.map
    (fun (name, _) ->
      let rs = Hashtbl.find ratios name in
      let n = List.length rs in
      {
        heuristic = name;
        mean_ratio = (if n = 0 then 0.0 else List.fold_left ( +. ) 0.0 rs /. float_of_int n);
        worst_ratio = List.fold_left Float.min 1.0 rs;
        optimal_instances = List.length (List.filter (fun r -> r >= 1.0 -. 1e-9) rs);
        instances = n;
      })
    contenders

let to_table rows =
  Table.make
    ~headers:[ "heuristic"; "mean accepted/optimal"; "worst"; "matched optimum"; "instances" ]
    (List.map
       (fun r ->
         [
           r.heuristic;
           Printf.sprintf "%.3f" r.mean_ratio;
           Printf.sprintf "%.3f" r.worst_ratio;
           Printf.sprintf "%d/%d" r.optimal_instances r.instances;
           string_of_int r.instances;
         ])
       rows)
