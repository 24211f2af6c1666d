(* Conformance & fuzzing subsystem: mutation tests for the one check of
   constraint set (1) (each Validate constructor induced by a hand-built
   infeasible schedule and flagged alone), the capacity sweep against its
   naive statement, shrinker units, scenario determinism, a fuzz smoke
   pass over every shipped engine, and the off-by-one headroom mutant
   being caught, shrunk and replayed bit-identically from its
   counterexample bundle. *)

open Helpers
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Validate = Gridbw_metrics.Validate
module Replay = Gridbw_metrics.Replay
module Summary = Gridbw_metrics.Summary
module Types = Gridbw_core.Types
module Scheduler = Gridbw_core.Scheduler
module Spec = Gridbw_workload.Spec
module Scenario = Gridbw_check.Scenario
module Reference = Gridbw_check.Reference
module Harness = Gridbw_check.Harness
module Shrink = Gridbw_check.Shrink
module Fuzz = Gridbw_check.Fuzz
module Mutant = Gridbw_testkit.Mutant
module Hotspot = Gridbw_metrics.Hotspot
module Fault = Gridbw_fault.Fault
module Injector = Gridbw_fault.Injector
module Gen = QCheck2.Gen

let alloc ?(id = 0) ?(ingress = 0) ?(egress = 0) ~bw ~sigma ~tau ?tf ?max_rate () =
  let tf = Option.value tf ~default:tau in
  let max_rate = Option.value max_rate ~default:bw in
  let r =
    Request.make ~id ~ingress ~egress ~volume:(bw *. (tau -. sigma)) ~ts:sigma ~tf ~max_rate
  in
  Allocation.make ~request:r ~bw ~sigma

(* --- oracle mutation tests ---

   For each Validate constructor, build a schedule that violates exactly
   that constraint.  Validate.check must flag it and nothing else. *)

let expect_exactly label allocs matches =
  match Validate.check (fabric2 ()) allocs with
  | [ v ] when matches v -> ()
  | vs ->
      Alcotest.failf "%s: Validate flagged [%s]" label
        (String.concat "; " (List.map Validate.describe vs))

let test_inject_port_overload () =
  (* Two 60 MB/s transfers overlap on ingress 0 of a 100 MB/s port; their
     egress ports differ so only one constraint breaks. *)
  expect_exactly "port overload"
    [ alloc ~id:0 ~egress:0 ~bw:60. ~sigma:0. ~tau:10. ();
      alloc ~id:1 ~egress:1 ~bw:60. ~sigma:5. ~tau:15. () ]
    (function Validate.Port_overload { side = Gridbw_metrics.Hotspot.Ingress; port = 0; _ } -> true | _ -> false)

let test_inject_deadline_miss () =
  (* 100 MB at 5 MB/s takes 20 s, but the window closes at t=10. *)
  let r = Request.make ~id:3 ~ingress:0 ~egress:0 ~volume:100. ~ts:0. ~tf:10. ~max_rate:100. in
  expect_exactly "deadline miss"
    [ Allocation.make ~request:r ~bw:5. ~sigma:0. ]
    (function Validate.Deadline_miss { request_id = 3; _ } -> true | _ -> false)

let test_inject_rate_above_max () =
  (* Granted 50 MB/s against a 5 MB/s host cap. *)
  let r = Request.make ~id:4 ~ingress:0 ~egress:0 ~volume:100. ~ts:0. ~tf:30. ~max_rate:5. in
  expect_exactly "rate above max"
    [ Allocation.make ~request:r ~bw:50. ~sigma:0. ]
    (function Validate.Rate_above_max { request_id = 4; _ } -> true | _ -> false)

let test_inject_bad_route () =
  (* Ingress 5 does not exist on the 2x2 fabric. *)
  expect_exactly "bad route"
    [ alloc ~id:5 ~ingress:5 ~bw:10. ~sigma:0. ~tau:10. () ]
    (function Validate.Bad_route { request_id = 5; _ } -> true | _ -> false)

let test_inject_duplicate () =
  let a = alloc ~id:6 ~bw:10. ~sigma:0. ~tau:10. () in
  expect_exactly "duplicate request" [ a; a ]
    (function Validate.Duplicate_request { request_id = 6 } -> true | _ -> false)

let test_early_start_unreachable () =
  (* Start_before_request cannot be built through the public API:
     [Allocation.t] is private and the smart constructor rejects
     sigma < ts, so the constructor is only reachable through a corrupted
     trace.  Pin the guard that makes it unreachable. *)
  let r = Request.make ~id:7 ~ingress:0 ~egress:0 ~volume:100. ~ts:5. ~tf:30. ~max_rate:50. in
  match Allocation.make ~request:r ~bw:10. ~sigma:2. with
  | _ -> Alcotest.fail "Allocation.make accepted sigma < ts"
  | exception Invalid_argument _ -> ()

let test_clean_schedule_passes () =
  let allocs =
    [ alloc ~id:0 ~egress:0 ~bw:60. ~sigma:0. ~tau:10. ();
      alloc ~id:1 ~egress:1 ~bw:40. ~sigma:5. ~tau:15. () ]
  in
  Alcotest.(check int) "validate" 0 (List.length (Validate.check (fabric2 ()) allocs));
  Alcotest.(check int) "reference" 0
    (List.length (Reference.audit_allocations (fabric2 ()) allocs))

(* --- shrinker --- *)

let test_shrink_list_minimizes () =
  let items = List.init 20 Fun.id in
  (* "Fails" whenever both 3 and 11 survive: the 1-minimal list is [3; 11]. *)
  let fails l = List.mem 3 l && List.mem 11 l in
  Alcotest.(check (list int)) "1-minimal" [ 3; 11 ] (Shrink.shrink_list ~fails items)

let test_shrink_preserves_failure () =
  let fails l = List.length l >= 3 in
  let out = Shrink.shrink_list ~fails (List.init 50 Fun.id) in
  Alcotest.(check int) "minimal failing size" 3 (List.length out)

(* --- scenario generation --- *)

let test_scenario_deterministic () =
  let a = Scenario.generate ~family:Scenario.Mixed ~seed:99L ~size:25 in
  let b = Scenario.generate ~family:Scenario.Mixed ~seed:99L ~size:25 in
  Alcotest.(check bool) "same requests" true (a.Scenario.requests = b.Scenario.requests);
  Alcotest.(check bool) "same fabric" true (Fabric.equal a.Scenario.fabric b.Scenario.fabric)

let test_fault_script_json_roundtrip () =
  let sc = Scenario.generate ~family:Scenario.Revision_storm ~seed:12L ~size:30 in
  Alcotest.(check bool) "storm script non-empty" true (sc.Scenario.faults <> []);
  match Scenario.faults_of_json (Scenario.faults_to_json sc.Scenario.faults) with
  | Ok back -> Alcotest.(check bool) "bit-exact round-trip" true (back = sc.Scenario.faults)
  | Error msg -> Alcotest.failf "fault script did not round-trip: %s" msg

let test_replay_hints () =
  let check name expected = Alcotest.(check (option string)) name expected (Fuzz.replay_hint name) in
  Alcotest.(check (option string)) "fcfs"
    (Some "gridbw run --trace workload.csv --heuristic fcfs")
    (Fuzz.replay_hint "fcfs");
  Alcotest.(check (option string)) "window"
    (Some "gridbw run --trace workload.csv --heuristic window --step 11 --policy 0.80")
    (Fuzz.replay_hint "window(11)/f=0.80");
  Alcotest.(check (option string)) "greedy"
    (Some "gridbw run --trace workload.csv --heuristic greedy --policy minrate")
    (Fuzz.replay_hint "greedy/minrate");
  Alcotest.(check (option string)) "malleable"
    (Some "gridbw run --trace workload.csv --heuristic malleable")
    (Fuzz.replay_hint "malleable");
  Alcotest.(check (option string)) "malleable booked"
    (Some "gridbw run --trace workload.csv --heuristic malleable --book-ahead 7")
    (Fuzz.replay_hint "malleable(ba=7)");
  Alcotest.(check (option string)) "malleable frozen"
    (Some "gridbw run --trace workload.csv --heuristic malleable --no-reshape")
    (Fuzz.replay_hint "malleable(no-reshape)");
  check "faulty-greedy[3 events]" None;
  check "mutant-greedy" None

(* --- fuzzing --- *)

let fuzz_smoke () =
  (* Every shipped engine, every family, small budget: the default suite's
     quick conformance pass.  Must stay well under a second. *)
  let outcome = Fuzz.run ~budget:25 ~seed:11L () in
  Alcotest.(check int) "scenarios checked" 25 outcome.Fuzz.scenarios;
  match outcome.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "unexpected counterexample: %s"
        (String.concat "; "
           (List.map (fun x -> Format.asprintf "%a" Harness.pp_finding x) f.Fuzz.findings))

let mutant_families = [ Scenario.Hotspot_skew; Scenario.Mixed ]

(* Shared between the two mutant tests: one 500-scenario hunt. *)
let mutant_outcome =
  lazy (Fuzz.run ~engines:[ Mutant.greedy ] ~families:mutant_families ~budget:500 ~seed:5L ())

let test_mutant_caught () =
  match (Lazy.force mutant_outcome).Fuzz.failures with
  | [] -> Alcotest.fail "off-by-one headroom mutant survived 500 scenarios"
  | f :: _ ->
      let sc = f.Fuzz.scenario in
      Alcotest.(check bool) "shrunk small" true (List.length sc.Scenario.requests <= 8);
      Alcotest.(check bool) "findings survive on the minimized scenario" true
        (f.Fuzz.findings <> [])

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_mutant_bundle_replays () =
  match (Lazy.force mutant_outcome).Fuzz.failures with
  | [] -> Alcotest.fail "off-by-one headroom mutant survived 500 scenarios"
  | f :: _ ->
      let dir = Filename.temp_file "gridbw-bundle" "" in
      Sys.remove dir;
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir)
        (fun () ->
          let case = Fuzz.write_bundle ~engines:[ Mutant.greedy ] ~dir ~index:0 f in
          List.iter
            (fun file ->
              Alcotest.(check bool) (file ^ " written") true
                (Sys.file_exists (Filename.concat case file)))
            [ "workload.csv"; "events.bin"; "meta.json" ];
          let meta =
            In_channel.with_open_bin (Filename.concat case "meta.json") In_channel.input_all
          in
          (match Gridbw_obs.Json.(Result.to_option (parse meta)) with
          | Some json ->
              Alcotest.(check (option string)) "meta.json replay hint"
                (Some "gridbw replay-trace events.bin")
                Gridbw_obs.Json.(
                  Option.bind (Option.bind (member "replay" json) (member "replay_trace")) to_str)
          | None -> Alcotest.fail "meta.json does not parse");
          let sc = f.Fuzz.scenario in
          match Replay.of_file (Filename.concat case "events.bin") with
          | Error msg -> Alcotest.failf "bundle trace does not parse: %s" msg
          | Ok r ->
              (* The leading Capacity events carry the scenario fabric:
                 with no default, a trace without them does not read. *)
              Alcotest.(check bool) "fabric reconstructed from the trace" true
                (Fabric.equal r.Replay.fabric sc.Scenario.fabric);
              let result =
                Scheduler.run Mutant.greedy (Spec.for_replay sc.Scenario.fabric)
                  sc.Scenario.requests
              in
              let live =
                Summary.compute sc.Scenario.fabric ~all:sc.Scenario.requests
                  ~accepted:result.Types.accepted
              in
              let replayed = Replay.summary r in
              if live <> replayed then
                Alcotest.failf "replay not bit-identical:@.live %a@.replay %a" Summary.pp live
                  Summary.pp replayed)

(* --- the journal reader's fabric: the capacity prefix must error
   cleanly, never silently substitute a default fabric, and every port a
   request names must exist in it --- *)

module Event = Gridbw_obs.Event

let cap side port capacity = Event.Capacity { time = 0.; side; port; capacity }

let arrival ?(id = 0) ?(ingress = 0) () =
  Event.Arrival
    { time = 0.; seq = 0; id; ingress; egress = 0; volume = 10.; ts = 0.; tf = 10.;
      max_rate = 10. }

let fabric_of events =
  Result.map (fun (r : Replay.t) -> r.Replay.fabric) (Replay.of_events events)

let test_replay_fabric_no_prefix () =
  (* A plain --trace-out trace starts directly with arrivals. *)
  match fabric_of [ arrival () ] with
  | Error Replay.No_prefix -> ()
  | Ok _ -> Alcotest.fail "fabric invented from a prefix-less trace"
  | Error e -> Alcotest.failf "expected No_prefix, got %s" (Replay.describe e)

let test_replay_fabric_torn_prefix () =
  let expect_bad label events =
    match fabric_of (events @ [ arrival () ]) with
    | Error (Replay.Bad_prefix _) -> ()
    | Ok _ -> Alcotest.failf "fabric built from %s" label
    | Error e -> Alcotest.failf "%s: expected Bad_prefix, got %s" label (Replay.describe e)
  in
  (* Ingress port 1 is declared (port 2 exists) but its capacity event is
     missing — a torn prefix must not summarise against a made-up fabric. *)
  expect_bad "a prefix with a missing port"
    [ cap Event.Ingress 0 100.; cap Event.Ingress 2 100.; cap Event.Egress 0 100. ];
  expect_bad "a zero-capacity prefix" [ cap Event.Ingress 0 0.; cap Event.Egress 0 100. ];
  expect_bad "an ingress-only prefix" [ cap Event.Ingress 0 100. ];
  expect_bad "a negative port" [ cap Event.Ingress (-1) 100.; cap Event.Egress 0 100. ]

let test_replay_fabric_valid_prefix () =
  let events =
    [ cap Event.Ingress 0 100.; cap Event.Ingress 1 50.; cap Event.Egress 0 80.; arrival () ]
  in
  match fabric_of events with
  | Ok f ->
      Alcotest.(check bool) "fabric matches the prefix" true
        (Fabric.equal f (Fabric.make ~ingress:[| 100.; 50. |] ~egress:[| 80. |]))
  | Error e -> Alcotest.failf "valid prefix rejected: %s" (Replay.describe e)

(* A request on a port the fabric lacks is an error naming the request
   and the port, not an out-of-bounds crash in the summary: against a
   one-port prefix, and against the default fabric of a prefix-less
   trace.  So is a capacity revision on a missing port or to nothing,
   which recovery would otherwise apply to the fabric. *)
let test_replay_unknown_port () =
  let expect ?(at = 2) label ~affix result =
    match result with
    | Error (Replay.Bad_event (k, msg) as e) ->
        Alcotest.(check int) (label ^ ": the event") at k;
        if not (contains ~affix msg) then
          Alcotest.failf "%s: %S does not name %S" label (Replay.describe e) affix
    | Ok _ -> Alcotest.failf "%s: read a request on a missing port" label
    | Error e -> Alcotest.failf "%s: %s" label (Replay.describe e)
  in
  expect "prefix" ~affix:"request 7 names ingress port 1"
    (Replay.of_events
       [ cap Event.Ingress 0 100.; cap Event.Egress 0 100.; arrival ~id:7 ~ingress:1 () ]);
  let paper () = Fabric.paper_default () in
  expect "default fabric" ~affix:"request 9 names ingress port 99"
    (Replay.of_events ~default:paper
       [ arrival (); arrival ~id:1 (); arrival ~id:9 ~ingress:99 () ]);
  let revise ev =
    Replay.of_events [ cap Event.Ingress 0 100.; cap Event.Egress 0 100.; arrival (); ev ]
  in
  expect ~at:3 "revised port" ~affix:"capacity revision names egress port 3"
    (revise (cap Event.Egress 3 50.));
  expect ~at:3 "revised to nothing" ~affix:"capacity revision of ingress port 0 to 0"
    (revise (cap Event.Ingress 0 0.))

(* The reader's rule for an id accepted twice (fault-injector traces
   re-admit residuals under their id): every booking is kept, in decision
   order, and a Reshape revising the id rewrites each of them. *)
let test_replay_duplicate_id () =
  let accept ~time ~bw =
    Event.Accept
      { time; id = 3; ingress = 0; egress = 0; volume = 10.; ts = 0.; tf = 10.; max_rate = 10.;
        bw; sigma = time; shard = None }
  in
  let reshape =
    Event.Reshape
      { time = 0.5; id = 4; ingress = 0; egress = 0; volume = 10.; ts = 0.; tf = 10.;
        max_rate = 10.; profile = [| (0.5, 1.5, 10.) |]; revised = [| (3, [| (1., 3., 5.) |]) |];
        shard = None }
  in
  let prefix = [ cap Event.Ingress 0 100.; cap Event.Egress 0 100. ] in
  let read events =
    match Replay.of_events (prefix @ events) with
    | Ok r -> r
    | Error e -> Alcotest.failf "duplicate-id trace rejected: %s" (Replay.describe e)
  in
  let rows r =
    List.map
      (fun (time, (a : Gridbw_alloc.Allocation.t)) ->
        (time, a.Gridbw_alloc.Allocation.request.Request.id, a.Gridbw_alloc.Allocation.bw))
      r.Replay.accepted
  in
  let twice = read [ accept ~time:0. ~bw:5.; accept ~time:0.25 ~bw:2. ] in
  Alcotest.(check (list (triple (float 0.) int (float 0.))))
    "both bookings, decision order" [ (0., 3, 5.); (0.25, 3, 2.) ] (rows twice);
  let revised = read [ accept ~time:0. ~bw:5.; accept ~time:0.25 ~bw:2.; reshape ] in
  Alcotest.(check (list (triple (float 0.) int (float 0.))))
    "a revision rewrites both" [ (0., 3, 5.); (0.25, 3, 5.); (0.5, 4, 10.) ] (rows revised);
  let cancelled =
    read
      [
        accept ~time:0. ~bw:5.;
        accept ~time:0.25 ~bw:2.;
        Event.Preempt { time = 1.; id = 3; bw = 2.; shard = None };
      ]
  in
  Alcotest.(check int) "a cancel removes every booking of the id" 0
    (List.length cancelled.Replay.survivors)

let prop_harness_clean_on_random_scenarios =
  qcase ~count:15 "harness: shipped engines conform on random scenarios"
    (Gridbw_testkit.Arbitrary.scenario ~max_size:20 ())
    (fun sc -> Harness.check sc = [])

(* --- the capacity sweep against its naive statement ---

   [Validate.port_sweep] is the one capacity check; [Reference.port_overloads]
   states it naively and is kept as its oracle.  Where every sum of the
   rates is exact whatever its order, the two must return the same
   instant and the same usage, bit for bit. *)

let slack = 1e-9

(* Up to a dozen intervals on a grid of eight instants, so endpoints tie
   and some intervals are empty or inverted, at multiples of 1/8. *)
let grid_intervals =
  Gen.(
    list_size (int_range 0 12)
      (triple
         (map float_of_int (int_range 0 7))
         (map float_of_int (int_range 0 7))
         (map (fun k -> float_of_int k /. 8.) (int_range 1 400))))

let prop_sweep_matches_naive =
  qcase ~count:500 "reference: the sweep matches the naive check on grid intervals"
    Gen.(pair grid_intervals (oneofl [ 25.; 50.; 100. ]))
    (fun (intervals, cap) ->
      let capacity _ = cap in
      Validate.port_sweep ~slack ~capacity intervals
      = Reference.port_overloads ~slack ~capacity intervals)

(* [target] is one ulp below, at or one ulp above the bound [cap] allows,
   the float [Validate]'s capacity comparison uses.  [target] is cut into
   pieces that are whole multiples of that ulp, so their sums are exact. *)
let at_bound ~cap ~off ~cuts =
  let bound = (cap *. (1. +. slack)) +. (slack *. 1e-3) in
  let target = match off with -1 -> Float.pred bound | 0 -> bound | _ -> Float.succ bound in
  let ulp = bound -. Float.pred bound in
  let n = Float.to_int (target /. ulp) in
  let points =
    List.sort compare (0 :: n :: List.map (fun c -> Float.to_int (c *. float_of_int n)) cuts)
  in
  let rec pieces = function
    | a :: (b :: _ as rest) when b > a -> (float_of_int (b - a) *. ulp) :: pieces rest
    | _ :: rest -> pieces rest
    | [] -> []
  in
  (target, pieces points)

let prop_sweep_at_bound =
  qcase ~count:300 "reference: the sweep matches the naive check within one ulp of the bound"
    Gen.(
      quad (float_range 1. 1000.) (int_range (-1) 1)
        (list_size (int_range 0 5) (float_range 0. 1.))
        (list_repeat 8 (pair (int_range 0 2) (int_range 3 5))))
    (fun (cap, off, cuts, spans) ->
      let target, pieces = at_bound ~cap ~off ~cuts in
      (* every piece covers [2, 3); empty intervals beside them add nothing *)
      let intervals =
        List.mapi
          (fun i bw ->
            let s, e = List.nth spans i in
            (float_of_int s, float_of_int e, bw))
          pieces
        @ [ (2., 2., cap); (3., 1., cap) ]
      in
      let capacity _ = cap in
      let worst = Validate.port_sweep ~slack ~capacity intervals in
      List.fold_left ( +. ) 0. pieces = target
      && worst = Reference.port_overloads ~slack ~capacity intervals
      && (worst <> None) = (off = 1))

(* Rates that are not multiples of anything come and go first, then one
   interval at the bound runs alone: a running sum that kept their
   rounding error would misread it. *)
let prop_sweep_no_drift =
  qcase ~count:300 "reference: the sweep's running sum does not drift"
    Gen.(
      triple (float_range 10. 1000.) (int_range (-1) 1)
        (list_size (int_range 2 8)
           (triple (float_range 0. 5.) (float_range 5. 10.) (float_range 0. 1.))))
    (fun (cap, off, group) ->
      let target, _ = at_bound ~cap ~off ~cuts:[] in
      let k = float_of_int (List.length group) in
      let intervals =
        List.map (fun (f, u, x) -> (f, u, x *. 0.99 *. cap /. k)) group @ [ (20., 30., target) ]
      in
      let capacity _ = cap in
      let worst = Validate.port_sweep ~slack ~capacity intervals in
      worst = Reference.port_overloads ~slack ~capacity intervals
      && worst = if off = 1 then Some (20., target) else None)

(* Up to a dozen (ingress, egress, interval) on a 2x2 fabric of 100 MB/s
   ports, instants and rates as in [grid_intervals]. *)
let grid_routed =
  Gen.(
    list_size (int_range 0 12)
      (map
         (fun (ingress, egress, (f, d, k)) ->
           (ingress, egress, (float_of_int f, float_of_int (f + d), float_of_int k /. 8.)))
         (triple (int_range 0 1) (int_range 0 1)
            (triple (int_range 0 6) (int_range 1 4) (int_range 1 400)))))

let fabric_2x2 () = Fabric.uniform ~ingress_count:2 ~egress_count:2 ~capacity:100.

(* The port rows of the naive check, as the audits report them: each
   port probed at every endpoint on the fabric and at [probes]. *)
let naive_rows ~probes ~capacity routed =
  let all = probes @ List.concat_map (fun (_, _, (f, u, _)) -> [ f; u ]) routed in
  let side side port_of =
    List.concat
      (List.init 2 (fun port ->
           let capacity = capacity side port in
           let mine =
             List.filter_map
               (fun ((_, _, iv) as r) -> if port_of r = port then Some iv else None)
               routed
           in
           match Reference.port_overloads ~slack ~probes:all ~capacity mine with
           | Some (at, usage) ->
               [ Validate.Port_overload { side; port; at; usage; capacity = capacity at } ]
           | None -> []))
  in
  side Hotspot.Ingress (fun (i, _, _) -> i) @ side Hotspot.Egress (fun (_, e, _) -> e)

let prop_allocations_match_naive =
  qcase ~count:300 "reference: audit_allocations' port rows match the naive check" grid_routed
    (fun routed ->
      let allocations =
        List.mapi
          (fun id (ingress, egress, (sigma, tau, bw)) ->
            alloc ~id ~ingress ~egress ~bw ~sigma ~tau ~max_rate:1e6 ~tf:100. ())
          routed
      in
      List.filter_map
        (function Reference.Infeasible (Validate.Port_overload _ as v) -> Some v | _ -> None)
        (Reference.audit_allocations (fabric_2x2 ()) allocations)
      = naive_rows ~probes:[] ~capacity:(fun _ _ _ -> 100.) routed)

let prop_services_match_naive =
  qcase ~count:300 "reference: audit_services matches the naive check under degrade windows"
    Gen.(
      pair grid_routed
        (list_size (int_range 0 4)
           (quad bool (int_range 0 1) (oneofl [ 0.; 0.25; 0.5; 0.75; 1. ])
              (pair (int_range 0 6) (int_range 0 3)))))
    (fun (routed, windows) ->
      let fabric = fabric_2x2 () in
      let services =
        List.map
          (fun (s_ingress, s_egress, (s_from, s_until, s_bw)) ->
            { Injector.s_ingress; s_egress; s_bw; s_from; s_until })
          routed
      in
      let script =
        List.map
          (fun (ingress, port, factor, (f, d)) ->
            let side = if ingress then Fault.Ingress else Fault.Egress in
            Fault.Degrade
              { side; port; factor; from_ = float_of_int f; until = float_of_int (f + d) })
          windows
      in
      let probes =
        List.concat_map
          (function Fault.Degrade { from_; until; _ } -> [ from_; until ] | _ -> [])
          script
      in
      Reference.audit_services ~slack fabric script services
      = naive_rows ~probes ~capacity:(Reference.capacity_at fabric script) routed)

let suites =
  [
    ( "conformance",
      [
        case "oracle mutation: port overload" test_inject_port_overload;
        case "oracle mutation: deadline miss" test_inject_deadline_miss;
        case "oracle mutation: rate above max" test_inject_rate_above_max;
        case "oracle mutation: bad route" test_inject_bad_route;
        case "oracle mutation: duplicate" test_inject_duplicate;
        case "oracle mutation: early start unreachable via constructor"
          test_early_start_unreachable;
        case "oracles pass a clean schedule" test_clean_schedule_passes;
        case "shrink: finds the 1-minimal sublist" test_shrink_list_minimizes;
        case "shrink: preserves the failure" test_shrink_preserves_failure;
        case "scenario: deterministic in (family, seed, size)" test_scenario_deterministic;
        case "scenario: fault script round-trips through json" test_fault_script_json_roundtrip;
        case "bundle: replay hints name the CLI spelling" test_replay_hints;
        case "replay fabric: no capacity prefix is a clean error" test_replay_fabric_no_prefix;
        case "replay fabric: torn prefix is a clean error" test_replay_fabric_torn_prefix;
        case "replay fabric: a missing port or an empty revision is an error"
          test_replay_unknown_port;
        case "replay: an id accepted twice keeps both bookings" test_replay_duplicate_id;
        case "replay fabric: valid prefix reconstructs the fabric"
          test_replay_fabric_valid_prefix;
        case "fuzz smoke: shipped engines conform (budget 25)" fuzz_smoke;
        slow_case "fuzz: off-by-one mutant caught and shrunk" test_mutant_caught;
        slow_case "fuzz: mutant bundle replays bit-identically" test_mutant_bundle_replays;
        prop_harness_clean_on_random_scenarios;
        prop_sweep_matches_naive;
        prop_sweep_at_bound;
        prop_sweep_no_drift;
        prop_allocations_match_naive;
        prop_services_match_naive;
      ] );
  ]
