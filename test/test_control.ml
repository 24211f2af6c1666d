open Helpers
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Token_bucket = Gridbw_control.Token_bucket
module Enforcer = Gridbw_control.Enforcer
module Plane = Gridbw_control.Plane
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Rng = Gridbw_prng.Rng

let invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

(* --- Token bucket --- *)

(* The level is read through [try_consume]: a chunk of exactly the level
   conforms, and then nothing more does at the same instant. *)
let holds b ~at level =
  Alcotest.(check bool) (Printf.sprintf "%g conforms at %g" level at) true
    (Token_bucket.try_consume b ~at ~amount:level);
  Alcotest.(check bool) (Printf.sprintf "then empty at %g" at) false
    (Token_bucket.try_consume b ~at ~amount:0.5)

let bucket_starts_full () = holds (Token_bucket.create ~rate:10. ~burst:50.) ~at:0.0 50.0

let bucket_refills_at_rate () =
  let b = Token_bucket.create ~rate:10. ~burst:50. in
  holds b ~at:0.0 50.0;
  holds b ~at:2.0 20.0;
  holds b ~at:100.0 50.0

let bucket_rejects_whole_chunk () =
  let b = Token_bucket.create ~rate:10. ~burst:20. in
  Alcotest.(check bool) "too big" false (Token_bucket.try_consume b ~at:0.0 ~amount:21.);
  holds b ~at:0.0 20.0

let bucket_time_monotone () =
  let b = Token_bucket.create ~rate:1. ~burst:1. in
  ignore (Token_bucket.try_consume b ~at:5.0 ~amount:0.);
  invalid "backwards" (fun () -> Token_bucket.try_consume b ~at:4.0 ~amount:0.)

let bucket_validation () =
  invalid "zero rate" (fun () -> Token_bucket.create ~rate:0. ~burst:1.);
  invalid "zero burst" (fun () -> Token_bucket.create ~rate:1. ~burst:0.)

(* --- Enforcer --- *)

let allocation () =
  let r = req ~id:0 ~volume:1000. ~ts:0. ~tf:100. ~max_rate:50. () in
  Allocation.make ~request:r ~bw:20. ~sigma:0.

let well_behaved_passes () =
  let a = allocation () in
  let chunks = Enforcer.well_behaved_sender a ~chunk_seconds:1.0 in
  let report = Enforcer.police a chunks in
  check_approx "all offered" 1000.0 report.Enforcer.offered;
  check_approx "all conformant" 1000.0 report.Enforcer.conformant;
  check_approx "nothing dropped" 0.0 report.Enforcer.dropped

let bursty_overdrive_is_clipped () =
  let a = allocation () in
  let chunks = Enforcer.bursty_sender (rng ()) a ~chunk_seconds:1.0 ~overdrive:2.0 in
  let report = Enforcer.police a chunks in
  Alcotest.(check bool) "some traffic dropped" true (report.Enforcer.dropped > 0.0);
  Alcotest.(check bool) "conformant bounded by grant" true
    (* bw * horizon + initial burst bounds what can pass *)
    (report.Enforcer.conformant <= (20.0 *. 100.0) +. 20.0 +. 1e-6)

let bursty_mild_mostly_passes () =
  let a = allocation () in
  let chunks = Enforcer.bursty_sender (rng ~seed:5L ()) a ~chunk_seconds:1.0 ~overdrive:0.5 in
  let report = Enforcer.police a chunks in
  Alcotest.(check bool) "most passes at half rate" true
    (report.Enforcer.conformant >= 0.8 *. report.Enforcer.offered)

let unsorted_chunks_rejected () =
  let a = allocation () in
  invalid "unsorted" (fun () ->
      Enforcer.police a
        [ { Enforcer.at = 2.0; bytes = 1.0 }; { Enforcer.at = 1.0; bytes = 1.0 } ])

(* --- Plane --- *)

let fabric1 () = Fabric.uniform ~ingress_count:1 ~egress_count:1 ~capacity:100.0

let plane_grants_and_counts_messages () =
  let r = req ~id:0 ~volume:100. ~ts:0. ~tf:100. ~max_rate:50. () in
  let stats = Plane.run (fabric1 ()) (Plane.default_config Policy.Min_rate) [ r ] in
  Alcotest.(check int) "accepted" 1 stats.Plane.accepted;
  Alcotest.(check int) "grant costs 4 messages" 4 stats.Plane.total_messages;
  let t = List.hd stats.Plane.transcripts in
  check_approx "decided after hop+processing" 0.006 t.Plane.decided_at;
  check_approx "client informed after reply hop" 0.011 t.Plane.client_informed_at;
  check_approx ~eps:1e-6 "mean response time" 0.011 stats.Plane.mean_response_time

let plane_rejection_costs_two_messages () =
  let r1 = req ~id:0 ~volume:9_000. ~ts:0. ~tf:100. ~max_rate:100. () in
  let r2 = req ~id:1 ~volume:9_000. ~ts:0. ~tf:100. ~max_rate:100. () in
  let stats = Plane.run (fabric1 ()) (Plane.default_config Policy.Min_rate) [ r1; r2 ] in
  Alcotest.(check int) "one accepted" 1 stats.Plane.accepted;
  Alcotest.(check int) "one rejected" 1 stats.Plane.rejected;
  Alcotest.(check int) "4 + 2 messages" 6 stats.Plane.total_messages

let plane_latency_can_expire_windows () =
  (* The window closes 1 ms after arrival; with 5 ms hops the decision
     arrives too late. An instantaneous controller would have accepted. *)
  let r = req ~id:0 ~volume:0.05 ~ts:0. ~tf:0.001 ~max_rate:50. () in
  let stats = Plane.run (fabric1 ()) (Plane.default_config Policy.Min_rate) [ r ] in
  Alcotest.(check int) "expired in flight" 0 stats.Plane.accepted;
  match (List.hd stats.Plane.transcripts).Plane.decision with
  | Types.Rejected Types.Deadline_unreachable -> ()
  | _ -> Alcotest.fail "expected Deadline_unreachable"

let plane_zero_latency_matches_greedy () =
  let fabric = fabric2 () in
  let reqs = random_requests ~seed:23L ~n:50 fabric in
  let config = { Plane.policy = Policy.Min_rate; hop_latency = 0.; decision_latency = 0. } in
  let stats = Plane.run fabric config reqs in
  let greedy = Gridbw_core.Flexible.greedy fabric Policy.Min_rate reqs in
  Alcotest.(check int) "same accept count as Algorithm 2" (List.length greedy.Types.accepted)
    stats.Plane.accepted

let suites =
  [
    ( "token-bucket",
      [
        case "starts full" bucket_starts_full;
        case "refills at rate, capped" bucket_refills_at_rate;
        case "rejects whole chunk" bucket_rejects_whole_chunk;
        case "time monotone" bucket_time_monotone;
        case "validation" bucket_validation;
      ] );
    ( "enforcer",
      [
        case "well-behaved sender passes" well_behaved_passes;
        case "overdriven sender is clipped" bursty_overdrive_is_clipped;
        case "mild sender mostly passes" bursty_mild_mostly_passes;
        case "unsorted chunks rejected" unsorted_chunks_rejected;
      ] );
    ( "plane",
      [
        case "grant flow and message count" plane_grants_and_counts_messages;
        case "rejection message count" plane_rejection_costs_two_messages;
        case "latency can expire tight windows" plane_latency_can_expire_windows;
        case "zero latency matches Algorithm 2" plane_zero_latency_matches_greedy;
      ] );
  ]
