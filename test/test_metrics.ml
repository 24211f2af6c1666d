open Helpers
module Summary = Gridbw_metrics.Summary
module Validate = Gridbw_metrics.Validate
module Resilience = Gridbw_metrics.Resilience
module Allocation = Gridbw_alloc.Allocation
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request

(* --- Summary --- *)

let summary_empty () =
  let s = Summary.compute (fabric2 ()) ~all:[] ~accepted:[] in
  Alcotest.(check int) "total" 0 s.Summary.total;
  check_approx "accept rate" 0.0 s.Summary.accept_rate

let two_requests_one_accepted () =
  let f = fabric2 () in
  (* Span [0, 10]; r1 accepted at its min rate of 50 MB/s. *)
  let r1 = req ~id:1 ~ingress:0 ~egress:0 ~volume:500. ~ts:0. ~tf:10. ~max_rate:100. () in
  let r2 = req ~id:2 ~ingress:1 ~egress:1 ~volume:500. ~ts:0. ~tf:10. ~max_rate:100. () in
  let a1 = Allocation.make ~request:r1 ~bw:50. ~sigma:0. in
  let s = Summary.compute f ~all:[ r1; r2 ] ~accepted:[ a1 ] in
  check_approx "accept rate" 0.5 s.Summary.accept_rate;
  check_approx "volume accept rate" 0.5 s.Summary.volume_accept_rate;
  check_approx "mean bw" 50.0 s.Summary.mean_bw;
  check_approx "mean speedup" 1.0 s.Summary.mean_speedup;
  check_approx "span" 10.0 s.Summary.span;
  (* Demand per port is 50 MB/s, below the 100 MB/s capacity, so B_scaled
     clamps to the demand: utilization = 50 / (0.5*(50+50+50+50)) = 0.5. *)
  check_approx "scaled utilization" 0.5 s.Summary.utilization;
  (* Raw denominator is half of total capacity = 200. *)
  check_approx "raw utilization" 0.25 s.Summary.raw_utilization

let summary_full_acceptance () =
  let f = fabric2 () in
  let r = req ~id:1 ~volume:1000. ~ts:0. ~tf:10. ~max_rate:100. () in
  let a = Allocation.make ~request:r ~bw:100. ~sigma:0. in
  let s = Summary.compute f ~all:[ r ] ~accepted:[ a ] in
  check_approx "accept rate 1" 1.0 s.Summary.accept_rate;
  check_approx "utilization 1 (scaled)" 1.0 s.Summary.utilization

let summary_speedup_and_delay () =
  let r = req ~id:1 ~volume:100. ~ts:0. ~tf:10. ~max_rate:50. () in
  (* Accepted at 2.5x its min rate, starting 2 s late. *)
  let a = Allocation.make ~request:r ~bw:25. ~sigma:2. in
  let s = Summary.compute (fabric2 ()) ~all:[ r ] ~accepted:[ a ] in
  check_approx "speedup" 2.5 s.Summary.mean_speedup;
  check_approx "start delay" 2.0 s.Summary.mean_start_delay

let guaranteed_counting () =
  let r1 = req ~id:1 ~volume:100. ~ts:0. ~tf:10. ~max_rate:40. () in
  let r2 = req ~id:2 ~volume:100. ~ts:0. ~tf:10. ~max_rate:40. () in
  let a1 = Allocation.make ~request:r1 ~bw:32. ~sigma:0. in
  (* exactly 0.8 * 40 *)
  let a2 = Allocation.make ~request:r2 ~bw:10. ~sigma:0. in
  (* min rate only *)
  Alcotest.(check int) "f=0.8 guarantees one" 1 (Summary.guaranteed_count ~f:0.8 [ a1; a2 ]);
  Alcotest.(check int) "f=0 guarantees both" 2 (Summary.guaranteed_count ~f:0.0 [ a1; a2 ]);
  Alcotest.(check int) "f=1 guarantees none" 0 (Summary.guaranteed_count ~f:1.0 [ a1; a2 ])

let feasibility_detects_overload () =
  let f = fabric2 () in
  let mk id = req ~id ~ingress:0 ~egress:0 ~volume:600. ~ts:0. ~tf:10. ~max_rate:60. () in
  let a id = Allocation.make ~request:(mk id) ~bw:60. ~sigma:0. in
  Alcotest.(check bool) "one fits" true (Validate.is_valid f [ a 1 ]);
  Alcotest.(check bool) "two overload the port" false (Validate.is_valid f [ a 1; a 2 ])

let feasibility_detects_deadline_miss () =
  let f = fabric2 () in
  let r = req ~id:1 ~volume:100. ~ts:0. ~tf:10. ~max_rate:50. () in
  let late = Allocation.make ~request:r ~bw:10. ~sigma:5. in
  Alcotest.(check bool) "late allocation flagged" false (Validate.is_valid f [ late ])

let feasibility_detects_rate_violation () =
  let f = fabric2 () in
  let r = req ~id:1 ~volume:100. ~ts:0. ~tf:10. ~max_rate:20. () in
  let fast = Allocation.make ~request:r ~bw:40. ~sigma:0. in
  Alcotest.(check bool) "over-max-rate flagged" false (Validate.is_valid f [ fast ])

(* --- Resilience edge cases --- *)

let outcome ?(admitted = true) ?(aborted = false) ?(delivered = 0.) ?finished_at
    ?(preemptions = 0) ?(violation_time = 0.) request =
  { Resilience.request; admitted; aborted; delivered; finished_at; preemptions; violation_time }

let resilience_empty () =
  let t = Resilience.compute ~span:100. [] in
  Alcotest.(check int) "total" 0 t.Resilience.total;
  check_approx "recovered_fraction defaults to 1" 1.0 t.Resilience.recovered_fraction;
  check_approx "guarantee_kept defaults to 1" 1.0 t.Resilience.guarantee_kept;
  check_approx "goodput" 0.0 t.Resilience.goodput

let resilience_zero_faults () =
  (* A fault-free run: everything admitted finishes untouched, on time. *)
  let r1 = req ~id:1 ~volume:100. ~ts:0. ~tf:10. () in
  let r2 = req ~id:2 ~volume:300. ~ts:0. ~tf:10. () in
  let t =
    Resilience.compute ~span:10.
      [ outcome ~delivered:100. ~finished_at:5. r1; outcome ~delivered:300. ~finished_at:10. r2 ]
  in
  Alcotest.(check int) "admitted" 2 t.Resilience.admitted;
  Alcotest.(check int) "nothing preempted" 0 t.Resilience.preempted;
  check_approx "recovered_fraction 1 with no preemptions" 1.0 t.Resilience.recovered_fraction;
  check_approx "guarantee fully kept" 1.0 t.Resilience.guarantee_kept;
  check_approx "no violation time" 0.0 t.Resilience.violation_minutes;
  check_approx "goodput" 40.0 t.Resilience.goodput;
  check_approx "everything promised was delivered" 1.0 t.Resilience.delivered_fraction

let resilience_all_shed () =
  (* Every admitted transfer was preempted and none came back. *)
  let mk id = req ~id ~volume:100. ~ts:0. ~tf:10. () in
  let t =
    Resilience.compute ~span:10.
      (List.map (fun id -> outcome ~preemptions:1 ~violation_time:60. (mk id)) [ 1; 2; 3 ])
  in
  Alcotest.(check int) "all preempted" 3 t.Resilience.preempted;
  Alcotest.(check int) "none recovered" 0 t.Resilience.recovered;
  check_approx "recovered_fraction 0" 0.0 t.Resilience.recovered_fraction;
  check_approx "guarantee fully broken" 0.0 t.Resilience.guarantee_kept;
  check_approx "violation minutes add up" 3.0 t.Resilience.violation_minutes;
  check_approx "nothing delivered" 0.0 t.Resilience.delivered_fraction;
  check_approx "no goodput" 0.0 t.Resilience.goodput

let resilience_aborts_excluded () =
  (* An end-host abort is not a broken network guarantee: it leaves both
     the recovery and the guarantee ratios alone. *)
  let r1 = req ~id:1 ~volume:100. ~ts:0. ~tf:10. () in
  let r2 = req ~id:2 ~volume:100. ~ts:0. ~tf:10. () in
  let t =
    Resilience.compute ~span:10.
      [ outcome ~aborted:true ~preemptions:2 ~delivered:30. r1;
        outcome ~delivered:100. ~finished_at:9. r2 ]
  in
  Alcotest.(check int) "abort counted" 1 t.Resilience.aborted;
  Alcotest.(check int) "aborted transfer not in preempted" 0 t.Resilience.preempted;
  check_approx "guarantee judged on survivors only" 1.0 t.Resilience.guarantee_kept;
  check_approx "delivered fraction counts partial bytes" 0.65 t.Resilience.delivered_fraction

let resilience_zero_span () =
  let r1 = req ~id:1 ~volume:100. ~ts:0. ~tf:10. () in
  let t = Resilience.compute ~span:0. [ outcome ~delivered:100. ~finished_at:5. r1 ] in
  check_approx "goodput guarded against zero span" 0.0 t.Resilience.goodput

let suites =
  [
    ( "summary",
      [
        case "empty run" summary_empty;
        case "two requests, one accepted" two_requests_one_accepted;
        case "full acceptance saturates utilization" summary_full_acceptance;
        case "speedup and start delay" summary_speedup_and_delay;
        case "guaranteed_count thresholds" guaranteed_counting;
        case "feasibility: port overload" feasibility_detects_overload;
        case "feasibility: deadline miss" feasibility_detects_deadline_miss;
        case "feasibility: rate violation" feasibility_detects_rate_violation;
      ] );
    ( "resilience",
      [
        case "empty outcome list" resilience_empty;
        case "zero faults" resilience_zero_faults;
        case "all transfers shed" resilience_all_shed;
        case "aborts excluded from ratios" resilience_aborts_excluded;
        case "zero span" resilience_zero_span;
      ] );
  ]
