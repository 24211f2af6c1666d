(* A final sweep of edge cases across modules. *)

open Helpers
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen
module Figure = Gridbw_report.Figure
module Table = Gridbw_report.Table
module Types = Gridbw_core.Types
module Policy = Gridbw_core.Policy
module Flexible = Gridbw_core.Flexible
module Plane = Gridbw_control.Plane
module Coalloc = Gridbw_coalloc.Coalloc
module Rng = Gridbw_prng.Rng

let invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* --- workload spec/gen --- *)

let flexible_slack_bounds () =
  let spec =
    Spec.make ~fabric:(fabric2 ()) ~volumes:(Spec.Fixed_volume 100.) ~rate_lo:10. ~rate_hi:50.
      ~flexibility:(Spec.Flexible { max_slack = 2.5 }) ~count:300 ~mean_interarrival:0.5 ()
  in
  let reqs = Gen.generate (rng ()) spec in
  List.iter
    (fun (r : Request.t) ->
      let s = Request.slack r in
      if s < 1.0 -. 1e-9 || s > 2.5 +. 1e-9 then Alcotest.failf "slack out of bounds: %f" s;
      check_approx "max rate is the drawn host cap within [10,50]" r.max_rate
        (Float.max 10. (Float.min 50. r.max_rate)))
    reqs

let infinite_slack_rejected () =
  invalid "infinite slack" (fun () ->
      Spec.make ~flexibility:(Spec.Flexible { max_slack = infinity }) ~mean_interarrival:1. ())

let paper_flexible_max_slack_arg () =
  let spec = Spec.paper_flexible ~max_slack:1.5 ~mean_interarrival:1. () in
  match spec.Spec.flexibility with
  | Spec.Flexible { max_slack } -> check_approx "carried" 1.5 max_slack
  | Spec.Rigid -> Alcotest.fail "expected flexible"

let choice_volume_generation () =
  let spec =
    Spec.make ~volumes:(Spec.Choice [| 7.; 11. |]) ~count:100 ~mean_interarrival:1. ()
  in
  List.iter
    (fun (r : Request.t) ->
      if not (approx r.volume 7. || approx r.volume 11.) then
        Alcotest.failf "unexpected volume %f" r.volume)
    (Gen.generate (rng ()) spec)

(* --- request corner cases --- *)

let min_rate_at_clamps_to_ts () =
  let r = req ~volume:100. ~ts:10. ~tf:20. ~max_rate:100. () in
  (match Request.min_rate_at r ~now:(-5.) with
  | Some rate -> check_approx "clamped" 10.0 rate
  | None -> Alcotest.fail "expected rate");
  match Request.min_rate_at r ~now:19.999999 with
  | Some rate -> Alcotest.(check bool) "huge but finite" true (rate > 1e6)
  | None -> Alcotest.fail "window still open"

(* --- policy at the boundary --- *)

let policy_zero_fraction_is_min_rate () =
  let r = req ~volume:100. ~ts:0. ~tf:10. ~max_rate:50. () in
  match
    ( Policy.assign (Policy.Fraction_of_max 0.0) r ~now:0.,
      Policy.assign Policy.Min_rate r ~now:0. )
  with
  | Some a, Some b -> check_approx "f=0 == minrate" b a
  | _ -> Alcotest.fail "expected rates"

(* --- types --- *)

let decision_of_unknown_id () =
  let result = Flexible.greedy (fabric2 ()) Policy.Min_rate [] in
  Alcotest.(check bool) "unknown id" true (Types.decision_of result 42 = None)

let reason_printing () =
  List.iter
    (fun (reason, expected) ->
      Alcotest.(check string) "reason text" expected
        (Format.asprintf "%a" Types.pp_reason reason);
      Alcotest.(check string) "reason name" expected (Types.reason_name reason))
    [
      (Types.Port_saturated, "port-saturated");
      (Types.Deadline_unreachable, "deadline-unreachable");
      (Types.Revoked, "revoked");
    ]

(* --- figure/table --- *)

let figure_single_point_plot () =
  let fig =
    Figure.make ~id:"one" ~title:"one" ~x_label:"x" ~y_label:"y"
      [ Figure.series ~label:"s" [ (1.0, 1.0) ] ]
  in
  Alcotest.(check bool) "plot renders" true (String.length (Figure.ascii_plot fig) > 0);
  Alcotest.(check bool) "render renders" true (String.length (Figure.render fig) > 0)

let table_empty_rows () =
  let t = Table.make ~headers:[ "a"; "b" ] [] in
  Alcotest.(check bool) "renders headers only" true (String.length (Table.render t) > 0);
  Alcotest.(check string) "csv headers only" "a,b\n" (Table.to_csv t)

(* --- control plane config --- *)

let plane_rejects_negative_latency () =
  let config = { Plane.policy = Policy.Min_rate; hop_latency = -1.; decision_latency = 0. } in
  invalid "negative hop" (fun () -> Plane.run (fabric2 ()) config [])

let plane_empty_workload () =
  let stats = Plane.run (fabric2 ()) (Plane.default_config Policy.Min_rate) [] in
  Alcotest.(check int) "no messages" 0 stats.Plane.total_messages;
  check_approx "no response time" 0.0 stats.Plane.mean_response_time

(* --- coalloc --- *)

let coalloc_random_jobs_validation () =
  let spec = Spec.make ~fabric:(fabric2 ()) ~count:5 ~mean_interarrival:1. () in
  invalid "zero cpu mean" (fun () ->
      Coalloc.random_jobs (rng ()) spec ~mean_cpu_seconds:0.)

let coalloc_empty_jobs () =
  let r = Coalloc.simulate (fabric2 ()) ~policy:Policy.Min_rate ~cpus_per_site:1 [] in
  Alcotest.(check int) "nothing" 0 (r.Coalloc.completed + r.Coalloc.rejected);
  check_approx "makespan" 0.0 r.Coalloc.makespan

(* --- flexible window batch boundaries --- *)

let window_batch_boundary_exact () =
  (* A request arriving exactly on a boundary belongs to the interval it
     starts: ts = 10 with step 10 is batch [10, 20). *)
  let r = req ~id:0 ~ingress:0 ~egress:0 ~volume:100. ~ts:10. ~tf:30. ~max_rate:50. () in
  let result = Flexible.window_deferred (fabric2 ()) Policy.Min_rate ~step:10. [ r ] in
  match Types.decision_of result 0 with
  | Some (Types.Accepted a) -> check_approx "decided at 20" 20.0 a.Gridbw_alloc.Allocation.sigma
  | _ -> Alcotest.fail "expected acceptance"

let suites =
  [
    ( "edge-cases",
      [
        case "flexible slack bounds" flexible_slack_bounds;
        case "infinite slack rejected" infinite_slack_rejected;
        case "paper_flexible max_slack" paper_flexible_max_slack_arg;
        case "choice volumes" choice_volume_generation;
        case "min_rate_at clamps" min_rate_at_clamps_to_ts;
        case "f=0 equals min rate" policy_zero_fraction_is_min_rate;
        case "decision_of unknown id" decision_of_unknown_id;
        case "reason printing" reason_printing;
        case "figure with one point" figure_single_point_plot;
        case "table with no rows" table_empty_rows;
        case "plane rejects negative latency" plane_rejects_negative_latency;
        case "plane empty workload" plane_empty_workload;
        case "coalloc random-jobs validation" coalloc_random_jobs_validation;
        case "coalloc empty jobs" coalloc_empty_jobs;
        case "window batch boundary" window_batch_boundary_exact;
      ] );
  ]
