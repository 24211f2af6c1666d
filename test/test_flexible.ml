open Helpers
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Port = Gridbw_alloc.Port
module Flexible = Gridbw_core.Flexible
module Online = Gridbw_core.Online
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Summary = Gridbw_metrics.Summary
module Validate = Gridbw_metrics.Validate
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen
module Rng = Gridbw_prng.Rng

let fabric1 () = Fabric.uniform ~ingress_count:1 ~egress_count:1 ~capacity:100.0
let flex ~id ~volume ~ts ~tf ~max_rate = req ~id ~ingress:0 ~egress:0 ~volume ~ts ~tf ~max_rate ()
let ids = accepted_ids

let alloc_of result id =
  match Types.decision_of result id with
  | Some (Types.Accepted a) -> a
  | _ -> Alcotest.failf "request %d not accepted" id

(* Two requests that fit together at MinRate but not at MaxRate. *)
let minrate_packs_more () =
  let reqs =
    [
      flex ~id:0 ~volume:500. ~ts:0. ~tf:10. ~max_rate:100.;
      flex ~id:1 ~volume:500. ~ts:0. ~tf:10. ~max_rate:100.;
    ]
  in
  let min = Flexible.greedy (fabric1 ()) Policy.Min_rate reqs in
  Alcotest.(check (list int)) "min rate accepts both" [ 0; 1 ] (ids min);
  check_approx "assigned min rate" 50.0 (alloc_of min 0).Allocation.bw;
  let full = Flexible.greedy (fabric1 ()) (Policy.Fraction_of_max 1.0) reqs in
  Alcotest.(check (list int)) "f=1 accepts only one" [ 0 ] (ids full);
  check_approx "assigned max rate" 100.0 (alloc_of full 0).Allocation.bw

(* Algorithm 2 reclaims finished transfers before admitting new arrivals at
   the same instant. *)
let release_before_admission () =
  let reqs =
    [
      flex ~id:0 ~volume:1000. ~ts:0. ~tf:10. ~max_rate:100.;
      flex ~id:1 ~volume:500. ~ts:10. ~tf:20. ~max_rate:100.;
    ]
  in
  let result = Flexible.greedy (fabric1 ()) Policy.Min_rate reqs in
  Alcotest.(check (list int)) "second admitted after reclaim" [ 0; 1 ] (ids result)

(* The paper's heavy-load inversion: granting MaxRate frees the port sooner,
   letting a later request in that MinRate would have blocked. *)
let full_rate_frees_port_sooner () =
  let reqs =
    [
      flex ~id:0 ~volume:500. ~ts:0. ~tf:10. ~max_rate:100.;
      flex ~id:1 ~volume:500. ~ts:5. ~tf:10. ~max_rate:100.;
    ]
  in
  let min = Flexible.greedy (fabric1 ()) Policy.Min_rate reqs in
  Alcotest.(check (list int)) "min rate blocks the second" [ 0 ] (ids min);
  let full = Flexible.greedy (fabric1 ()) (Policy.Fraction_of_max 1.0) reqs in
  Alcotest.(check (list int)) "max rate admits both" [ 0; 1 ] (ids full)

let greedy_arrival_tie_smaller_minrate_first () =
  let reqs =
    [
      flex ~id:0 ~volume:800. ~ts:0. ~tf:10. ~max_rate:80.;
      flex ~id:1 ~volume:300. ~ts:0. ~tf:10. ~max_rate:30.;
    ]
  in
  let result = Flexible.greedy (fabric1 ()) Policy.Min_rate reqs in
  (* id1 (MinRate 30) goes first, then id0 (80): 30 + 80 > 100. *)
  Alcotest.(check (list int)) "smaller min rate wins" [ 1 ] (ids result)

let greedy_sigma_is_arrival () =
  let reqs = [ flex ~id:0 ~volume:100. ~ts:3. ~tf:13. ~max_rate:50. ] in
  let result = Flexible.greedy (fabric1 ()) Policy.Min_rate reqs in
  check_approx "sigma = ts" 3.0 (alloc_of result 0).Allocation.sigma

(* --- WINDOW (Algorithm 3, lookahead batching) --- *)

let window_keeps_arrival_start () =
  let reqs = [ flex ~id:0 ~volume:100. ~ts:3. ~tf:23. ~max_rate:100. ] in
  let result = Flexible.window (fabric1 ()) Policy.Min_rate ~step:10. reqs in
  let a = alloc_of result 0 in
  check_approx "sigma = ts despite batching" 3.0 a.Allocation.sigma;
  check_approx "MinRate from the original window" 5.0 a.Allocation.bw;
  Alcotest.(check bool) "meets deadline" true (Allocation.meets_deadline a)

(* Three same-instant candidates, capacity 100: the two cheapest are
   admitted (30 + 50), the 60 MB/s one trips the cost > 1 cut. *)
let window_packs_by_cost () =
  let mk id volume = flex ~id ~volume ~ts:0. ~tf:10. ~max_rate:(volume /. 10.) in
  let reqs = [ mk 0 600.; mk 1 500.; mk 2 300. ] in
  let result = Flexible.window (fabric1 ()) Policy.Min_rate ~step:100. reqs in
  Alcotest.(check (list int)) "cheapest two admitted" [ 1; 2 ] (ids result);
  match Types.decision_of result 0 with
  | Some (Types.Rejected Types.Port_saturated) -> ()
  | _ -> Alcotest.fail "expected Port_saturated for the expensive candidate"

(* Lookahead beats arrival order: greedy locks in the 90 MB/s hog that
   arrives first, WINDOW sees the whole batch and picks the two 50s. *)
let window_knowledge_beats_greedy () =
  let mk id bw ts = flex ~id ~volume:(bw *. 100.) ~ts ~tf:(ts +. 100.) ~max_rate:bw in
  let reqs = [ mk 0 90. 0.; mk 1 50. 1.; mk 2 50. 2. ] in
  let greedy = Flexible.greedy (fabric1 ()) Policy.Min_rate reqs in
  Alcotest.(check (list int)) "greedy keeps the hog" [ 0 ] (ids greedy);
  let window = Flexible.window (fabric1 ()) Policy.Min_rate ~step:10. reqs in
  Alcotest.(check (list int)) "window picks the pair" [ 1; 2 ] (ids window)

(* A candidate can be instantaneously cheap at its own start yet collide
   with a reservation spike later in its transmission interval; it must be
   rejected alone, without tripping the batch-wide cut. *)
let window_spike_rejected_alone () =
  let ra = flex ~id:0 ~volume:250. ~ts:2. ~tf:7. ~max_rate:50. in
  (* [2,7) at 50 *)
  let rb = flex ~id:1 ~volume:600. ~ts:0. ~tf:10. ~max_rate:60. in
  (* [0,10) at 60 *)
  let rc = flex ~id:2 ~volume:300. ~ts:0. ~tf:10. ~max_rate:30. in
  (* [0,10) at 30 *)
  let result = Flexible.window (fabric1 ()) Policy.Min_rate ~step:100. [ ra; rb; rc ] in
  (* Cost order: rc (0.3) -> accepted; ra (0.8 at t=2 over the 30 base) ->
     accepted, usage on [2,7) is 80; rb (cost 0.9 at t=0, <= 1) collides
     with the spike and is rejected alone. *)
  Alcotest.(check (list int)) "spike rejection" [ 0; 2 ] (ids result);
  match Types.decision_of result 1 with
  | Some (Types.Rejected Types.Port_saturated) -> ()
  | _ -> Alcotest.fail "expected Port_saturated for the spiked candidate"

let window_never_expires_windows () =
  (* Even a request whose whole window is shorter than the step is fine:
     it keeps its own start time. *)
  let reqs = [ flex ~id:0 ~volume:50. ~ts:1. ~tf:2. ~max_rate:50. ] in
  let result = Flexible.window (fabric1 ()) Policy.Min_rate ~step:400. reqs in
  Alcotest.(check (list int)) "accepted at its own start" [ 0 ] (ids result)

let window_bad_step () =
  match Flexible.window (fabric1 ()) Policy.Min_rate ~step:0. [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero step accepted"

(* --- WINDOW-DEFERRED (ablation variant) --- *)

let deferred_defers_to_interval_end () =
  let reqs = [ flex ~id:0 ~volume:100. ~ts:1. ~tf:21. ~max_rate:100. ] in
  let result = Flexible.window_deferred (fabric1 ()) Policy.Min_rate ~step:10. reqs in
  let a = alloc_of result 0 in
  check_approx "decided at interval end" 10.0 a.Allocation.sigma;
  (* Residual window is 11 s for 100 MB. *)
  check_approx "deadline-aware min rate" (100. /. 11.) a.Allocation.bw;
  Alcotest.(check bool) "meets deadline" true (Allocation.meets_deadline a)

let deferred_rejects_expired_window () =
  let reqs = [ flex ~id:0 ~volume:50. ~ts:1. ~tf:2. ~max_rate:50. ] in
  let result = Flexible.window_deferred (fabric1 ()) Policy.Min_rate ~step:10. reqs in
  match Types.decision_of result 0 with
  | Some (Types.Rejected Types.Deadline_unreachable) -> ()
  | _ -> Alcotest.fail "expected Deadline_unreachable"

let deferred_releases_at_boundaries () =
  let reqs =
    [
      (* Decided at t=10, f=1 gives 100 MB/s: runs [10, 15). *)
      flex ~id:0 ~volume:500. ~ts:0. ~tf:30. ~max_rate:100.;
      (* Arrives in [10, 20), decided at t=20, after the release. *)
      flex ~id:1 ~volume:500. ~ts:12. ~tf:40. ~max_rate:100.;
    ]
  in
  let result =
    Flexible.window_deferred (fabric1 ()) (Policy.Fraction_of_max 1.0) ~step:10. reqs
  in
  Alcotest.(check (list int)) "both admitted across boundaries" [ 0; 1 ] (ids result);
  check_approx "second starts at its boundary" 20.0 (alloc_of result 1).Allocation.sigma

let window_dominates_deferred () =
  (* Lookahead never pays the delay/expiry tax, so on a common random
     workload it should accept at least as many requests here. *)
  let spec =
    Spec.make ~fabric:(fabric2 ()) ~volumes:(Spec.Uniform_volume { lo = 100.; hi = 2000. })
      ~rate_lo:5. ~rate_hi:100. ~count:150 ~mean_interarrival:1. ()
  in
  let reqs = Gen.generate (Rng.create ~seed:4L ()) spec in
  let lookahead = Flexible.window (fabric2 ()) Policy.Min_rate ~step:20. reqs in
  let deferred = Flexible.window_deferred (fabric2 ()) Policy.Min_rate ~step:20. reqs in
  Alcotest.(check bool) "lookahead >= deferred" true
    (List.length lookahead.Types.accepted >= List.length deferred.Types.accepted)

let policies =
  [ Policy.Min_rate; Policy.Fraction_of_max 0.5; Policy.Fraction_of_max 0.8;
    Policy.Fraction_of_max 1.0 ]

let random_flexible seed n =
  let spec =
    Spec.make ~fabric:(fabric2 ()) ~volumes:(Spec.Uniform_volume { lo = 50.; hi = 2000. })
      ~rate_lo:5. ~rate_hi:100. ~count:n ~mean_interarrival:2. ()
  in
  Gen.generate (Rng.create ~seed ()) spec

(* --- BOOK-AHEAD (advance reservations, section 6 contrast) --- *)

let book_ahead_early_booker_wins () =
  (* Two conflicting requests; the later-starting one books 10 s ahead and
     claims the future capacity first. *)
  let r0 = flex ~id:0 ~volume:500. ~ts:5. ~tf:10. ~max_rate:100. in
  let r1 = flex ~id:1 ~volume:500. ~ts:6. ~tf:11. ~max_rate:100. in
  let announce (r : Request.t) = if r.id = 1 then 10.0 else 0.0 in
  let result =
    Flexible.book_ahead (fabric1 ()) (Policy.Fraction_of_max 1.0) ~announce [ r0; r1 ]
  in
  Alcotest.(check (list int)) "the booker wins" [ 1 ] (ids result);
  (* Without booking, arrival order favours r0. *)
  let no_lead = Flexible.book_ahead (fabric1 ()) (Policy.Fraction_of_max 1.0)
      ~announce:(fun _ -> 0.) [ r0; r1 ] in
  Alcotest.(check (list int)) "walk-in order favours the early starter" [ 0 ] (ids no_lead)

let book_ahead_constant_lead_matches_zero_lead () =
  let reqs = random_flexible 21L 60 in
  let a = Flexible.book_ahead (fabric2 ()) Policy.Min_rate ~announce:(fun _ -> 0.) reqs in
  let b = Flexible.book_ahead (fabric2 ()) Policy.Min_rate ~announce:(fun _ -> 50.) reqs in
  Alcotest.(check (list int)) "constant lead preserves order and outcome" (ids a) (ids b)

let book_ahead_feasible () =
  let reqs = random_flexible 22L 80 in
  let rng = Rng.create ~seed:5L () in
  let leads = Hashtbl.create 64 in
  List.iter (fun (r : Request.t) -> Hashtbl.replace leads r.id (Rng.float rng 100.)) reqs;
  let result =
    Flexible.book_ahead (fabric2 ()) (Policy.Fraction_of_max 0.9)
      ~announce:(fun r -> Hashtbl.find leads r.Request.id)
      reqs
  in
  Alcotest.(check bool) "consistent" true (Types.is_consistent result);
  Alcotest.(check bool) "feasible" true (Validate.is_valid (fabric2 ()) result.Types.accepted)

let book_ahead_negative_lead_rejected () =
  let reqs = [ flex ~id:0 ~volume:10. ~ts:0. ~tf:10. ~max_rate:10. ] in
  match Flexible.book_ahead (fabric1 ()) Policy.Min_rate ~announce:(fun _ -> -1.) reqs with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative lead accepted"

(* --- properties over random workloads --- *)

let feasible_and_consistent () =
  let fabric = fabric2 () in
  List.iter
    (fun seed ->
      let reqs = random_flexible seed 80 in
      List.iter
        (fun policy ->
          List.iter
            (fun kind ->
              let result = Flexible.run kind fabric policy reqs in
              let name = Flexible.heuristic_name kind ^ "/" ^ Policy.name policy in
              Alcotest.(check bool) (name ^ " consistent") true (Types.is_consistent result);
              Alcotest.(check bool) (name ^ " feasible") true
                (Validate.is_valid fabric result.Types.accepted))
            [ `Greedy; `Window 5.0; `Window 40.0; `Window_deferred 5.0; `Window_deferred 40.0 ])
        policies)
    [ 11L; 12L; 13L ]

let accepted_meet_deadlines () =
  let reqs = random_flexible 99L 120 in
  List.iter
    (fun kind ->
      let result = Flexible.run kind (fabric2 ()) Policy.Min_rate reqs in
      List.iter
        (fun a ->
          if not (Allocation.meets_deadline a) then
            Alcotest.failf "%s: allocation for %d misses its deadline"
              (Flexible.heuristic_name kind) a.Allocation.request.Request.id)
        result.Types.accepted)
    [ `Greedy; `Window 7.0; `Window_deferred 7.0 ]

let deterministic () =
  let reqs = random_flexible 5L 60 in
  List.iter
    (fun kind ->
      let a = Flexible.run kind (fabric2 ()) (Policy.Fraction_of_max 0.8) reqs in
      let b = Flexible.run kind (fabric2 ()) (Policy.Fraction_of_max 0.8) reqs in
      Alcotest.(check (list int)) (Flexible.heuristic_name kind ^ " deterministic") (ids a) (ids b))
    [ `Greedy; `Window 10.0; `Window_deferred 10.0 ]

(* --- Online controller --- *)

let online_time_monotone () =
  let ctl = Online.create (fabric1 ()) in
  Online.advance_to ctl 5.0;
  match Online.advance_to ctl 4.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "time moved backwards"

let online_clamps_rounding_dust () =
  (* Timestamps an epsilon in the past (float dust from upstream arithmetic)
     are clamped to the clock instead of raising; genuinely past times
     still raise (previous test). *)
  let ctl = Online.create (fabric1 ()) in
  Online.advance_to ctl 5.0;
  Online.advance_to ctl (5.0 -. 1e-12);
  check_approx "clock unchanged" 5.0 (Online.now ctl);
  let r = flex ~id:0 ~volume:100. ~ts:0. ~tf:10. ~max_rate:100. in
  match Online.try_admit ctl (Policy.Fraction_of_max 1.0) r ~at:(5.0 -. 1e-12) with
  | Types.Accepted a -> check_approx "admitted at the clamped clock" 5.0 a.Allocation.sigma
  | Types.Rejected _ -> Alcotest.fail "admission failed"

let online_active_count () =
  let ctl = Online.create (fabric1 ()) in
  let r = flex ~id:0 ~volume:100. ~ts:0. ~tf:10. ~max_rate:100. in
  (match Online.try_admit ctl (Policy.Fraction_of_max 1.0) r ~at:0.0 with
  | Types.Accepted _ -> ()
  | Types.Rejected _ -> Alcotest.fail "admission failed");
  Alcotest.(check int) "one active" 1 (Online.active_count ctl);
  check_approx "port used" 100.0 (Online.used ctl (Port.Ingress 0));
  Online.advance_to ctl 1.0;
  (* Transfer finishes at t = 1 (100 MB at 100 MB/s). *)
  Alcotest.(check int) "released" 0 (Online.active_count ctl);
  check_approx "port free" 0.0 (Online.used ctl (Port.Egress 0))

(* The controller against a counted model, on random sequences of
   admissions, clock advances and preemptions.  Ids are drawn from a small
   range, so one id is often booked twice; a preemption may name an
   allocation that was already preempted or has passed its [tau].  After
   every step, [active_count] must equal the model's held bookings, and a
   preemption must answer [true] exactly when its allocation is held.  At
   the end the journaled events, replayed into a fresh controller advanced
   to the same clock, must rebuild every port counter bit for bit.  A
   [Preempt] event names only the id, and replay releases the id's newest
   held booking, so that last check applies to runs whose every
   preemption took its id's newest held booking. *)
type online_op =
  | Admit of { id : int; ingress : int; egress : int; delay : float; span : float; load : float; headroom : float }
  | Advance of float
  | Preempt of int

let online_op_gen =
  let open QCheck2.Gen in
  frequency
    [
      ( 5,
        map
          (fun (id, ingress, egress, (delay, span, load, headroom)) ->
            Admit { id; ingress; egress; delay; span; load; headroom })
          (quad (int_range 0 3) (int_range 0 1) (int_range 0 1)
             (quad (float_range 0. 3.) (float_range 0.5 20.) (float_range 0.05 1.) (float_range 1. 4.))) );
      (2, map (fun dt -> Advance dt) (float_range 0. 8.));
      (3, map (fun k -> Preempt k) (int_range 0 1000));
    ]

let online_matches_model (policy, ops) =
  let fabric = fabric2 () in
  let events = ref [] in
  let sink = { Gridbw_obs.Sink.emit = (fun ev -> events := ev :: !events); flush = ignore } in
  let ctx = Gridbw_core.Runtime.make ~obs:(Gridbw_obs.Obs.create ~sink ()) () in
  let ctl = Online.create fabric in
  (* (allocation, held), newest first *)
  let booked = ref [] in
  let unambiguous = ref true in
  let settle () =
    let now = Online.now ctl in
    List.iter (fun ((a : Allocation.t), held) -> if a.Allocation.tau <= now then held := false) !booked
  in
  let step op =
    match op with
    | Admit { id; ingress; egress; delay; span; load; headroom } -> (
        let ts = Float.max 0. (Online.now ctl) +. delay in
        let volume = load *. 100. *. span in
        let r = req ~id ~ingress ~egress ~volume ~ts ~tf:(ts +. span) ~max_rate:(headroom *. volume /. span) () in
        let d = Online.try_admit ~ctx ctl policy r ~at:(Float.max (Online.now ctl) ts) in
        settle ();
        match d with Types.Accepted a -> booked := (a, ref true) :: !booked | Types.Rejected _ -> ())
    | Advance dt ->
        Online.advance_to ctl (Float.max 0. (Online.now ctl) +. dt);
        settle ()
    | Preempt k -> (
        match !booked with
        | [] -> ()
        | _ ->
            let a, held = List.nth !booked (k mod List.length !booked) in
            let expected = !held in
            if Online.preempt ~ctx ctl a <> expected then
              Alcotest.failf "preempt of request %d answered %b" a.Allocation.request.Request.id (not expected);
            if expected then begin
              let rec newer = function
                | [] -> false
                | (b, hb) :: rest ->
                    if b == a then false
                    else (!hb && b.Allocation.request.Request.id = a.Allocation.request.Request.id) || newer rest
              in
              if newer !booked then unambiguous := false;
              held := false
            end)
  in
  List.iter
    (fun op ->
      step op;
      let held = List.length (List.filter (fun (_, h) -> !h) !booked) in
      if Online.active_count ctl <> held then
        Alcotest.failf "active_count %d, model %d" (Online.active_count ctl) held)
    ops;
  if !unambiguous then begin
    let replayed = Online.create fabric in
    List.iter (fun ev -> ignore (Online.replay replayed ev)) (List.rev !events);
    if Online.now ctl > neg_infinity then Online.advance_to replayed (Online.now ctl);
    let same port =
      Int64.equal (Int64.bits_of_float (Online.used ctl port)) (Int64.bits_of_float (Online.used replayed port))
    in
    List.iter
      (fun port -> if not (same port) then Alcotest.failf "replayed %a differs" Port.pp port)
      [ Port.Ingress 0; Port.Ingress 1; Port.Egress 0; Port.Egress 1 ];
    if Online.active_count replayed <> Online.active_count ctl then
      Alcotest.failf "replayed active_count %d, live %d" (Online.active_count replayed) (Online.active_count ctl)
  end;
  true

let online_model_gen =
  QCheck2.Gen.(
    pair
      (oneofl [ Policy.Min_rate; Policy.Fraction_of_max 0.8; Policy.Fraction_of_max 1.0 ])
      (list_size (int_range 1 60) online_op_gen))

let suites =
  [
    ( "flexible-greedy",
      [
        case "min rate packs more than max rate" minrate_packs_more;
        case "release precedes same-instant admission" release_before_admission;
        case "f=1 frees the port sooner (heavy-load inversion)" full_rate_frees_port_sooner;
        case "arrival tie: smaller MinRate first" greedy_arrival_tie_smaller_minrate_first;
        case "sigma equals arrival time" greedy_sigma_is_arrival;
      ] );
    ( "flexible-window",
      [
        case "batching keeps each arrival start" window_keeps_arrival_start;
        case "packs candidates by saturation cost" window_packs_by_cost;
        case "lookahead beats arrival order" window_knowledge_beats_greedy;
        case "reservation spike rejected alone" window_spike_rejected_alone;
        case "short windows never expire" window_never_expires_windows;
        case "rejects bad step" window_bad_step;
      ] );
    ( "flexible-window-deferred",
      [
        case "defers decision to interval end" deferred_defers_to_interval_end;
        case "rejects expired window" deferred_rejects_expired_window;
        case "releases at boundaries" deferred_releases_at_boundaries;
        case "lookahead dominates deferred" window_dominates_deferred;
      ] );
    ( "book-ahead",
      [
        case "early booker displaces the walk-in" book_ahead_early_booker_wins;
        case "constant lead is order-preserving" book_ahead_constant_lead_matches_zero_lead;
        case "feasible and consistent" book_ahead_feasible;
        case "negative lead rejected" book_ahead_negative_lead_rejected;
      ] );
    ( "flexible-properties",
      [
        case "feasible and consistent across policies" feasible_and_consistent;
        case "accepted requests meet deadlines" accepted_meet_deadlines;
        case "determinism" deterministic;
      ] );
    ( "online",
      [
        case "time is monotone" online_time_monotone;
        case "rounding dust is clamped" online_clamps_rounding_dust;
        case "active count follows releases" online_active_count;
        qcase ~count:300 "preempt, active_count and replay match a counted model" online_model_gen
          online_matches_model;
      ] );
  ]
