open Helpers
module Runner = Gridbw_experiments.Runner
module Figure = Gridbw_report.Figure
module Summary = Gridbw_metrics.Summary
module Policy = Gridbw_core.Policy

(* Tiny parameters so the whole experiment pipeline stays fast in tests. *)
let tiny = Runner.with_params ~count:40 ~reps:1 Runner.quick

let params_arithmetic () =
  let p = Runner.with_params ~count:7 ~reps:2 ~seed:5L Runner.defaults in
  Alcotest.(check int) "count" 7 p.Runner.count;
  Alcotest.(check int) "reps" 2 p.Runner.reps;
  Alcotest.(check int64) "rep seed" 6L (Runner.seed_for p ~rep:1)

let steady_count_behaviour () =
  (* Slow arrivals: base wins.  Fast arrivals: capped growth. *)
  Alcotest.(check int) "slow keeps base" 100 (Runner.steady_count 100 ~mean_interarrival:1000.);
  let fast = Runner.steady_count 100 ~mean_interarrival:0.01 in
  Alcotest.(check int) "fast hits the 10x-base cap" 1000 fast

let load_calibration () =
  let spec = Runner.rigid_spec tiny ~load:2.0 in
  check_approx ~eps:1e-6 "spec load" 2.0 (Gridbw_workload.Spec.offered_load spec);
  check_approx ~eps:1e-6 "interarrival round trip" 2.0
    (Runner.offered_load_of_interarrival spec.Gridbw_workload.Spec.mean_interarrival)

let summaries_run () =
  let s = Runner.rigid_summary tiny ~load:1.0 `Fcfs ~rep:0 in
  Alcotest.(check bool) "some requests" true (s.Summary.total > 0);
  let s2 = Runner.flexible_summary tiny ~mean_interarrival:1.0 `Greedy Policy.Min_rate ~rep:0 in
  Alcotest.(check bool) "accept rate in [0,1]" true
    (s2.Summary.accept_rate >= 0. && s2.Summary.accept_rate <= 1.)

let figure4_structure () =
  let accept, util = Gridbw_experiments.Figure4.run ~loads:[ 0.5; 2.0 ] tiny in
  Alcotest.(check int) "five series" 5 (List.length accept.Figure.series);
  List.iter
    (fun s -> Alcotest.(check int) "two points" 2 (List.length s.Figure.points))
    accept.Figure.series;
  Alcotest.(check string) "ids" "fig4-accept" accept.Figure.id;
  Alcotest.(check string) "ids" "fig4-util" util.Figure.id

let figure5_structure () =
  let fig = Gridbw_experiments.Figure5.run ~interarrivals:[ 0.5; 2.0 ] ~steps:[ 50.0 ] tiny in
  Alcotest.(check int) "greedy + one window" 2 (List.length fig.Figure.series)

let figure6_structure () =
  let heavy, under =
    Gridbw_experiments.Figure6.run ~heavy:[ 0.5 ] ~underloaded:[ 5.0 ] ~kind:`Greedy
      ~id_prefix:"t" ~title:"t" tiny
  in
  Alcotest.(check int) "five policies" 5 (List.length heavy.Figure.series);
  Alcotest.(check string) "panel ids" "t-heavy" heavy.Figure.id;
  Alcotest.(check string) "panel ids" "t-under" under.Figure.id

let tuning_rows () =
  let rows = Gridbw_experiments.Tuning.run ~fs:[ 0.0; 1.0 ] tiny in
  (* 2 regimes x 2 heuristics x 2 fs *)
  Alcotest.(check int) "row count" 8 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "rates bounded" true
        (r.Gridbw_experiments.Tuning.accept_rate >= 0.
        && r.Gridbw_experiments.Tuning.accept_rate <= 1.
        && r.Gridbw_experiments.Tuning.mean_speedup >= 0.))
    rows

let optgap_rows () =
  let rows = Gridbw_experiments.Optgap.run ~instances:3 ~requests_per_instance:8 tiny in
  Alcotest.(check int) "five heuristics" 5 (List.length rows);
  List.iter
    (fun r ->
      let open Gridbw_experiments.Optgap in
      Alcotest.(check bool) "ratios in [0,1]" true (r.mean_ratio >= 0. && r.mean_ratio <= 1. +. 1e-9);
      Alcotest.(check bool) "worst <= mean" true (r.worst_ratio <= r.mean_ratio +. 1e-9))
    rows

let baseline_rows () =
  let rows = Gridbw_experiments.Baseline_cmp.run ~mean_interarrival:0.3 tiny in
  Alcotest.(check int) "three approaches" 3 (List.length rows);
  let fluid = List.hd rows in
  check_approx "fluid serves everyone" 1.0 fluid.Gridbw_experiments.Baseline_cmp.served;
  List.iteri
    (fun i r ->
      if i > 0 then
        (* admission control: every served transfer is on time *)
        check_approx "served = on-time" r.Gridbw_experiments.Baseline_cmp.served
          r.Gridbw_experiments.Baseline_cmp.on_time)
    rows

let coalloc_rows () =
  let rows = Gridbw_experiments.Coalloc_exp.run ~fs:[ 1.0 ] tiny in
  Alcotest.(check int) "minbw + one f" 2 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "counts non-negative" true
        (r.Gridbw_experiments.Coalloc_exp.completed >= 0
        && r.Gridbw_experiments.Coalloc_exp.rejected >= 0))
    rows

let npc_rows () =
  let rows = Gridbw_experiments.Npc_demo.run ~sizes:[ (2, 4) ] tiny in
  Alcotest.(check int) "four instances" 4 (List.length rows);
  List.iter
    (fun r ->
      Alcotest.(check bool) "reduction equivalence" true r.Gridbw_experiments.Npc_demo.agree)
    rows

let ablation_structure () =
  let fig = Gridbw_experiments.Ablation.run ~steps:[ 10.; 40. ] ~mean_interarrival:0.5 tiny in
  Alcotest.(check int) "three series" 3 (List.length fig.Figure.series)

let long_lived_rows () =
  let rows = Gridbw_experiments.Long_lived_exp.run ~request_counts:[ 30; 60 ] tiny in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  List.iter
    (fun r ->
      let open Gridbw_experiments.Long_lived_exp in
      Alcotest.(check bool) "optimal >= greedy" true (r.optimal_accepted >= r.greedy_accepted -. 1e-9))
    rows

let distributed_rows () =
  let rows = Gridbw_experiments.Distributed_exp.run ~gossip_intervals:[ 0.0; 30.0 ] tiny in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let fresh = List.hd rows in
  check_approx "no violations at interval 0" 0.0
    fresh.Gridbw_experiments.Distributed_exp.egress_violations

let bookahead_rows () =
  let rows = Gridbw_experiments.Bookahead_exp.run ~fractions:[ 0.0; 0.5 ] tiny in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let zero = List.hd rows in
  Alcotest.(check int) "no bookers at fraction 0" 0
    zero.Gridbw_experiments.Bookahead_exp.bookers

let core_stress_rows () =
  let rows = Gridbw_experiments.Core_stress.run ~rhos:[ 0.5; 1.0 ] tiny in
  Alcotest.(check int) "two rows" 2 (List.length rows);
  let tight = List.hd rows and ample = List.nth rows 1 in
  let open Gridbw_experiments.Core_stress in
  (* Edge-only admission ignores rho entirely. *)
  check_approx "edge accept independent of trunk" tight.edge_accept ample.edge_accept;
  Alcotest.(check bool) "tight trunk violated at least as much" true
    (tight.violation_time_fraction >= ample.violation_time_fraction -. 1e-9);
  Alcotest.(check bool) "core-aware accepts no more than edge-only" true
    (tight.core_aware_accept <= tight.edge_accept +. 1e-9)

let faults_rows () =
  let module F = Gridbw_experiments.Fault_exp in
  Alcotest.(check (pair bool bool)) "fault-free parity" (true, true) (F.parity tiny);
  let rows = F.run tiny and ablation = F.run_ablation tiny in
  Alcotest.(check int) "three variants x three fault specs" 9 (List.length rows);
  Alcotest.(check int) "one row per victim policy" 3 (List.length ablation);
  let unit name x =
    if not (x >= 0. && x <= 1.) then Alcotest.failf "%s = %g outside [0, 1]" name x
  in
  List.iter
    (fun (r : F.row) ->
      unit "accept" r.F.accept;
      unit "kept" r.F.kept;
      unit "recovered" r.F.recovered;
      if not (r.F.violation_min >= 0.) then Alcotest.failf "violation %g < 0" r.F.violation_min)
    (rows @ List.map snd ablation)

let tables_render () =
  (* Every to_table renders without raising. *)
  let open Gridbw_experiments in
  ignore (Gridbw_report.Table.render (Tuning.to_table (Tuning.run ~fs:[ 0.5 ] tiny)));
  ignore
    (Gridbw_report.Table.render
       (Optgap.to_table (Optgap.run ~instances:2 ~requests_per_instance:6 tiny)));
  ignore
    (Gridbw_report.Table.render (Npc_demo.to_table (Npc_demo.run ~sizes:[ (2, 2) ] tiny)));
  ignore
    (Gridbw_report.Table.render
       (Long_lived_exp.to_table (Long_lived_exp.run ~request_counts:[ 20 ] tiny)));
  ignore
    (Gridbw_report.Table.render
       (Distributed_exp.to_table (Distributed_exp.run ~gossip_intervals:[ 0.0 ] tiny)))

let suites =
  [
    ( "experiments",
      [
        case "params arithmetic" params_arithmetic;
        case "steady count behaviour" steady_count_behaviour;
        case "load calibration" load_calibration;
        case "runner summaries" summaries_run;
        case "figure 4 structure" figure4_structure;
        case "figure 5 structure" figure5_structure;
        case "figure 6/7 structure" figure6_structure;
        case "tuning rows" tuning_rows;
        case "optgap rows" optgap_rows;
        slow_case "baseline rows" baseline_rows;
        case "coalloc rows" coalloc_rows;
        case "npc rows" npc_rows;
        case "ablation structure" ablation_structure;
        case "long-lived rows" long_lived_rows;
        case "distributed rows" distributed_rows;
        case "bookahead rows" bookahead_rows;
        case "core stress rows" core_stress_rows;
        case "faults rows" faults_rows;
        slow_case "tables render" tables_render;
      ] );
  ]
