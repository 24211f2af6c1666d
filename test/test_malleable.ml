(* The MALLEABLE engine (lib/malleable): bitwise profile closure on
   random workloads, per-booking decision order, reshape opening capacity,
   overload dominance over GREEDY, and the exact-optimum upper bound on
   small instances. *)

open Helpers
module Malleable = Gridbw_malleable.Malleable
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Rate_profile = Gridbw_alloc.Rate_profile
module Types = Gridbw_core.Types
module Exact = Gridbw_core.Exact
module Rng = Gridbw_prng.Rng
module ME = Gridbw_experiments.Malleable_exp
module Runner = Gridbw_experiments.Runner
module Validate = Gridbw_metrics.Validate
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen
module Runtime = Gridbw_core.Runtime
module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event

(* --- profile closure: the engine's core contract ---

   Every accepted allocation carries a step profile that (a) integrates
   to the request volume BITWISE (Kahan order, [=] not [approx]), (b)
   never exceeds max_rate, (c) stays inside the transfer window, and the
   whole accepted set passes the reference capacity audit. *)

let closes config seed =
  let reqs = workload_of_seed ~n:40 seed in
  let result = Malleable.run config (fabric2 ()) reqs in
  List.for_all
    (fun (a : Allocation.t) ->
      let r = a.Allocation.request in
      match a.Allocation.profile with
      | None -> false
      | Some p ->
          Rate_profile.integral p = r.Request.volume
          && Rate_profile.peak p <= r.Request.max_rate
          && Rate_profile.start p >= r.Request.ts
          && Rate_profile.finish p <= Malleable.deadline_limit r)
    result.Types.accepted
  && Gridbw_metrics.Validate.is_valid (fabric2 ()) result.Types.accepted

let prop_profiles_close =
  qcase ~count:60 "malleable: every profile closes bitwise, in rate and window" seed_gen
    (fun seed -> closes Malleable.default seed)

let prop_profiles_close_booked =
  qcase ~count:40 "malleable(ba=7): booked profiles close too" seed_gen (fun seed ->
      closes { Malleable.default with Malleable.book_ahead = 7. } seed)

(* --- one booking per admitted request, in decision order ---

   State is kept per booking, not per id: two admitted requests that
   share an id are two bookings, each reported once, and the audit names
   only the repeated id — neither booking's load is lost from the
   ports. *)

let test_shared_id_bookings () =
  let fabric = Fabric.paper_default () in
  let r1 = Request.make ~id:5 ~ingress:0 ~egress:0 ~volume:60000. ~ts:0. ~tf:100. ~max_rate:1200. in
  let r2 = Request.make ~id:5 ~ingress:1 ~egress:1 ~volume:70000. ~ts:1. ~tf:101. ~max_rate:1400. in
  let res = Malleable.run Malleable.default fabric [ r1; r2 ] in
  (match res.Types.accepted with
  | [ a1; a2 ] ->
      Alcotest.(check bool) "r1 first" true (a1.Allocation.request == r1);
      Alcotest.(check bool) "r2 second" true (a2.Allocation.request == r2)
  | l -> Alcotest.failf "expected two bookings, got %d" (List.length l));
  match Validate.check fabric res.Types.accepted with
  | [ Validate.Duplicate_request { request_id = 5 } ] -> ()
  | vs -> Alcotest.failf "audit: %s" (String.concat "; " (List.map Validate.describe vs))

(* Every accept journals one Reshape record at its decision, so the
   records' ids, in trace order, are the ids of [accepted]. *)
let test_accepted_in_trace_order () =
  let reqs =
    Gen.generate (Rng.create ~seed:7L ()) (Spec.paper_flexible ~count:400 ~mean_interarrival:14.0 ())
  in
  List.iter
    (fun config ->
      let seen = ref [] in
      let sink = { Gridbw_obs.Sink.emit = (fun e -> seen := e :: !seen); flush = ignore } in
      let ctx = Runtime.make ~obs:(Obs.create ~sink ()) () in
      let res = Malleable.run config ~ctx (Fabric.paper_default ()) reqs in
      let traced =
        List.filter_map (function Event.Reshape { id; _ } -> Some id | _ -> None) (List.rev !seen)
      in
      Alcotest.(check bool) "several accepts" true (List.length traced > 1);
      Alcotest.(check (list int)) "accepted ids in trace order" traced
        (List.map (fun (a : Allocation.t) -> a.Allocation.request.Request.id) res.Types.accepted))
    [ Malleable.default; { Malleable.default with Malleable.book_ahead = 7. } ]

(* --- reshaping opens capacity ---

   On a 10 MB/s 1x1 fabric, A (100 MB over [0,20]) level-fills at rate 5
   across its whole window, leaving 5 MB/s of headroom before t=10.
   B (60 MB due by t=10) can move at most 50 MB through that headroom
   and must be rejected unless the engine may reshape A's
   not-yet-started profile.  The EDF re-solve gives B rate 6 on [0,10)
   and A rate 4 then 6 across the two halves: both close. *)

let test_reshape_opens_capacity () =
  let fabric = Fabric.uniform ~ingress_count:1 ~egress_count:1 ~capacity:10. in
  let a = Request.make ~id:0 ~ingress:0 ~egress:0 ~volume:100. ~ts:0. ~tf:20. ~max_rate:10. in
  let b = Request.make ~id:1 ~ingress:0 ~egress:0 ~volume:60. ~ts:0. ~tf:10. ~max_rate:10. in
  let config = { Malleable.default with Malleable.book_ahead = 100. } in
  let reshaped = Malleable.run config fabric [ a; b ] in
  Alcotest.(check int) "reshape admits both" 2 (List.length reshaped.Types.accepted);
  (match Gridbw_metrics.Validate.check fabric reshaped.Types.accepted with
  | [] -> ()
  | vs -> Alcotest.failf "reshaped schedule fails the audit (%d violations)" (List.length vs));
  let frozen =
    Malleable.run { config with Malleable.reshape = false } fabric [ a; b ]
  in
  Alcotest.(check int) "without reshape only A fits" 1 (List.length frozen.Types.accepted);
  match frozen.Types.rejected with
  | [ (r, _) ] -> Alcotest.(check int) "B is the reject" 1 r.Request.id
  | _ -> Alcotest.fail "expected exactly one rejection"

(* --- accept-rate dominance at the shipped overload operating points ---

   On the section 5.3 workload MALLEABLE must accept at least GREEDY's
   rate on every row and strictly more on at least one (ISSUE 10's
   acceptance bar; the full four-point sweep ships in `gridbw table
   malleable`, the test pins a two-point slice to stay fast). *)

let test_overload_dominance () =
  let rows = ME.run ~interarrivals:[ 0.1; 0.15 ] Runner.quick in
  List.iter
    (fun (r : ME.row) ->
      if r.ME.malleable < r.ME.greedy then
        Alcotest.failf "interarrival %g: malleable %.4f < greedy %.4f" r.ME.mean_interarrival
          r.ME.malleable r.ME.greedy)
    rows;
  Alcotest.(check bool) "strictly higher on at least one row" true
    (List.exists (fun (r : ME.row) -> r.ME.malleable > r.ME.greedy) rows)

(* --- never above the exact optimum ---

   On 1x1 fabrics the flow-based feasibility check of
   [Exact.max_requests_malleable] is exact, so the engine may never
   accept more requests than the solver. *)

let test_exact_bound () =
  let gaps = ME.gap ~sizes:[ 4; 6 ] ~trials:10 ~seed:42L () in
  Alcotest.(check int) "two sizes" 2 (List.length gaps);
  List.iter
    (fun (g : ME.gap_row) ->
      Alcotest.(check bool) (Printf.sprintf "size %d solved to optimality" g.ME.size) true
        g.ME.all_optimal;
      if g.ME.engine_accepted > g.ME.exact_count then
        Alcotest.failf "size %d: engine accepted %d > exact optimum %d" g.ME.size
          g.ME.engine_accepted g.ME.exact_count)
    gaps

let prop_engine_below_exact =
  qcase ~count:15 "malleable: accept count <= exact optimum on random 1x1 instances" seed_gen
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let fabric = Fabric.uniform ~ingress_count:1 ~egress_count:1 ~capacity:100. in
      let reqs =
        List.init 6 (fun id ->
            let ts = Rng.float_in rng 0. 50. in
            let dur = Rng.float_in rng 1. 25. in
            let min_rate = Rng.float_in rng 2. 80. in
            let slack = Rng.float_in rng 1. 3. in
            Request.make ~id ~ingress:0 ~egress:0 ~volume:(min_rate *. dur) ~ts
              ~tf:(ts +. dur) ~max_rate:(Float.min 100. (min_rate *. slack)))
      in
      let res = Malleable.run Malleable.default fabric reqs in
      let sol = Exact.max_requests_malleable fabric reqs in
      sol.Exact.optimal && List.length res.Types.accepted <= sol.Exact.count)

let suites =
  [
    ( "malleable",
      [
        prop_profiles_close;
        prop_profiles_close_booked;
        case "two bookings sharing an id are both kept, in decision order" test_shared_id_bookings;
        case "accepted follows the trace's Reshape records" test_accepted_in_trace_order;
        case "reshape opens capacity a frozen schedule wastes" test_reshape_opens_capacity;
        slow_case "accept rate dominates GREEDY at the overload points" test_overload_dominance;
        slow_case "never above the exact optimum (seeded gap sweep)" test_exact_bound;
        prop_engine_below_exact;
      ] );
  ]
