open Helpers
module Profile_ref = Gridbw_alloc.Profile_ref
module Port = Gridbw_alloc.Port
module Ledger = Gridbw_alloc.Ledger
module Live = Gridbw_alloc.Live
module Allocation = Gridbw_alloc.Allocation
module Request = Gridbw_request.Request
module Rng = Gridbw_prng.Rng

(* --- Profile --- *)

let empty_profile () =
  check_approx "usage" 0.0 (Profile_ref.usage_at Profile_ref.empty 3.0);
  check_approx "max" 0.0 (Profile_ref.max_over Profile_ref.empty ~from_:0. ~until:10.);
  Alcotest.(check bool) "is_empty" true (Profile_ref.is_empty Profile_ref.empty)

let single_interval () =
  let p = Profile_ref.add Profile_ref.empty ~from_:2. ~until:5. 10. in
  check_approx "before" 0.0 (Profile_ref.usage_at p 1.9);
  check_approx "at start (closed left)" 10.0 (Profile_ref.usage_at p 2.0);
  check_approx "inside" 10.0 (Profile_ref.usage_at p 4.0);
  check_approx "at end (open right)" 0.0 (Profile_ref.usage_at p 5.0);
  check_approx "peak" 10.0 (Profile_ref.peak p)

let overlapping_adds_sum () =
  let p =
    Profile_ref.empty
    |> fun p -> Profile_ref.add p ~from_:0. ~until:10. 5.
    |> fun p -> Profile_ref.add p ~from_:5. ~until:15. 7.
  in
  check_approx "first only" 5.0 (Profile_ref.usage_at p 2.);
  check_approx "overlap" 12.0 (Profile_ref.usage_at p 7.);
  check_approx "second only" 7.0 (Profile_ref.usage_at p 12.);
  check_approx "max over overlap" 12.0 (Profile_ref.max_over p ~from_:0. ~until:15.);
  check_approx "max over prefix" 12.0 (Profile_ref.max_over p ~from_:0. ~until:6.);
  check_approx "max over disjoint prefix" 5.0 (Profile_ref.max_over p ~from_:0. ~until:5.)

let max_over_sees_interior_spike () =
  let p = Profile_ref.add Profile_ref.empty ~from_:4. ~until:6. 42. in
  check_approx "spike inside query" 42.0 (Profile_ref.max_over p ~from_:0. ~until:10.)

let add_remove_identity () =
  let p =
    Profile_ref.empty
    |> fun p -> Profile_ref.add p ~from_:1. ~until:4. 3.
    |> fun p -> Profile_ref.add p ~from_:2. ~until:6. 2.
    |> fun p -> Profile_ref.remove p ~from_:1. ~until:4. 3.
    |> fun p -> Profile_ref.remove p ~from_:2. ~until:6. 2.
  in
  Alcotest.(check bool) "back to empty" true (Profile_ref.is_empty p)

let breakpoints_sorted () =
  let p =
    Profile_ref.empty
    |> fun p -> Profile_ref.add p ~from_:5. ~until:9. 1.
    |> fun p -> Profile_ref.add p ~from_:1. ~until:3. 1.
  in
  Alcotest.(check (list (float 0.))) "sorted" [ 1.; 3.; 5.; 9. ] (Profile_ref.breakpoints p)

let rejects_bad_interval () =
  (match Profile_ref.add Profile_ref.empty ~from_:3. ~until:3. 1. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty interval accepted");
  match Profile_ref.add Profile_ref.empty ~from_:0. ~until:infinity 1. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "infinite interval accepted"

let prop_add_remove_cancels =
  qcase ~count:200 "qcheck: add/remove sequences cancel exactly"
    QCheck2.Gen.(list_size (int_range 1 30) (triple (int_range 0 50) (int_range 1 20) (int_range 1 100)))
    (fun ops ->
      let intervals =
        List.map (fun (s, d, bw) -> (float_of_int s, float_of_int (s + d), float_of_int bw)) ops
      in
      let p =
        List.fold_left (fun p (f, u, bw) -> Profile_ref.add p ~from_:f ~until:u bw) Profile_ref.empty
          intervals
      in
      let p =
        List.fold_left (fun p (f, u, bw) -> Profile_ref.remove p ~from_:f ~until:u bw) p intervals
      in
      Profile_ref.is_empty p)

(* --- Allocation --- *)

let allocation_fields () =
  let r = req ~volume:100. ~ts:0. ~tf:10. ~max_rate:50. () in
  let a = Allocation.make ~request:r ~bw:20. ~sigma:1. in
  check_approx "tau" 6.0 a.Allocation.tau;
  Alcotest.(check bool) "deadline ok" true (Allocation.meets_deadline a)

let allocation_violations () =
  let r = req ~volume:100. ~ts:0. ~tf:10. ~max_rate:50. () in
  let late = Allocation.make ~request:r ~bw:10. ~sigma:5. in
  Alcotest.(check bool) "misses deadline" false (Allocation.meets_deadline late);
  match Allocation.make ~request:r ~bw:10. ~sigma:(-1.) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "sigma before ts accepted"

(* --- Ledger --- *)

let alloc r bw sigma = Allocation.make ~request:r ~bw ~sigma

let ledger_fit_and_reserve () =
  let f = fabric2 () in
  let l = Ledger.create f in
  let r1 = req ~id:1 ~ingress:0 ~egress:0 ~volume:600. ~ts:0. ~tf:10. ~max_rate:60. () in
  let a1 = alloc r1 60. 0. in
  Alcotest.(check bool) "fits empty" true (Ledger.fits l a1);
  Ledger.reserve l a1;
  check_approx "usage" 60.0 (Ledger.usage_at l (Port.Ingress 0) 5.0);
  (* Same ports, same window, 60 + 60 > 100. *)
  let r2 = req ~id:2 ~ingress:0 ~egress:0 ~volume:600. ~ts:0. ~tf:10. ~max_rate:60. () in
  Alcotest.(check bool) "does not fit" false (Ledger.fits l (alloc r2 60. 0.));
  (* Exactly filling the port is allowed. *)
  let r3 = req ~id:3 ~ingress:0 ~egress:0 ~volume:400. ~ts:0. ~tf:10. ~max_rate:40. () in
  Alcotest.(check bool) "exact fit" true (Ledger.fits l (alloc r3 40. 0.));
  (* Disjoint window fits regardless. *)
  let r4 = req ~id:4 ~ingress:0 ~egress:0 ~volume:600. ~ts:10. ~tf:20. ~max_rate:60. () in
  Alcotest.(check bool) "disjoint window" true (Ledger.fits l (alloc r4 60. 10.))

let ledger_egress_constraint () =
  let f = fabric2 () in
  let l = Ledger.create f in
  (* Different ingress ports, same egress: egress should saturate. *)
  let r1 = req ~id:1 ~ingress:0 ~egress:1 ~volume:700. ~ts:0. ~tf:10. ~max_rate:70. () in
  Ledger.reserve l (alloc r1 70. 0.);
  let r2 = req ~id:2 ~ingress:1 ~egress:1 ~volume:700. ~ts:0. ~tf:10. ~max_rate:70. () in
  Alcotest.(check bool) "egress saturated" false (Ledger.fits l (alloc r2 70. 0.));
  let r3 = req ~id:3 ~ingress:1 ~egress:0 ~volume:700. ~ts:0. ~tf:10. ~max_rate:70. () in
  Alcotest.(check bool) "other egress free" true (Ledger.fits l (alloc r3 70. 0.))

let ledger_reserve_checks () =
  let f = fabric2 () in
  let l = Ledger.create f in
  let r = req ~id:1 ~volume:2000. ~ts:0. ~tf:10. ~max_rate:200. () in
  match Ledger.reserve l (alloc r 200. 0.) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "over-capacity reserve accepted"

let ledger_release_restores () =
  let f = fabric2 () in
  let l = Ledger.create f in
  let r1 = req ~id:1 ~volume:900. ~ts:0. ~tf:10. ~max_rate:90. () in
  let a1 = alloc r1 90. 0. in
  Ledger.reserve l a1;
  let r2 = req ~id:2 ~volume:900. ~ts:0. ~tf:10. ~max_rate:90. () in
  Alcotest.(check bool) "blocked" false (Ledger.fits l (alloc r2 90. 0.));
  Ledger.release l a1;
  Alcotest.(check bool) "free again" true (Ledger.fits l (alloc r2 90. 0.));
  Alcotest.(check (list (float 0.))) "no breakpoint left" []
    (Ledger.breakpoints_over l (Port.Ingress 0) ~from_:neg_infinity ~until:infinity)

(* A zero-length interval holds nothing: it fits a full port, and
   booking or releasing it leaves the ledger as it was.  Inverted and NaN
   bounds still raise. *)
let ledger_zero_length () =
  let l = Ledger.create (fabric2 ()) in
  Ledger.reserve_interval l ~ingress:0 ~egress:0 ~bw:100. ~from_:0. ~until:10.;
  Alcotest.(check bool) "fits a full port" true
    (Ledger.fits_interval l ~ingress:0 ~egress:0 ~bw:50. ~from_:5. ~until:5.);
  Ledger.reserve_interval l ~ingress:0 ~egress:0 ~bw:50. ~from_:5. ~until:5.;
  Ledger.release_interval l ~ingress:0 ~egress:0 ~bw:50. ~from_:20. ~until:20.;
  Alcotest.(check (list (float 0.))) "no breakpoint added" [ 0.; 10. ]
    (Ledger.breakpoints_over l (Port.Ingress 0) ~from_:neg_infinity ~until:infinity);
  List.iter
    (fun (label, from_, until) ->
      match Ledger.fits_interval l ~ingress:0 ~egress:0 ~bw:1. ~from_ ~until with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "%s interval accepted" label)
    [ ("inverted", 6., 5.); ("NaN", Float.nan, 5.); ("NaN end", 5., Float.nan) ]

let prop_random_reservations_within_capacity =
  qcase ~count:60 "qcheck: fits-guarded reservations never violate capacity"
    QCheck2.Gen.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let f = fabric2 () in
      let l = Ledger.create f in
      let requests = List.init 30 (random_request rng f) in
      List.iter
        (fun (r : Request.t) ->
          let a = alloc r (Request.min_rate r) r.Request.ts in
          if Ledger.fits l a then Ledger.reserve l a)
        requests;
      Ledger.within_capacity l)

(* --- Live --- *)

let live_grab_release () =
  let f = fabric2 () in
  let v = Live.create f in
  Alcotest.(check bool) "fits fresh" true (Live.fits v ~ingress:0 ~egress:1 ~bw:100.);
  Live.grab v ~ingress:0 ~egress:1 ~bw:60.;
  check_approx "ali" 60.0 (Live.ingress_used v 0);
  check_approx "ale" 60.0 (Live.egress_used v 1);
  Alcotest.(check bool) "no room for 50" false (Live.fits v ~ingress:0 ~egress:0 ~bw:50.);
  Alcotest.(check bool) "room for 40" true (Live.fits v ~ingress:0 ~egress:0 ~bw:40.);
  Live.release v ~ingress:0 ~egress:1 ~bw:60.;
  check_approx "released" 0.0 (Live.ingress_used v 0)

let live_try_grab () =
  let f = fabric2 () in
  let v = Live.create f in
  Alcotest.(check bool) "grabs" true (Live.try_grab v ~ingress:0 ~egress:0 ~bw:80.);
  Alcotest.(check bool) "refuses" false (Live.try_grab v ~ingress:0 ~egress:1 ~bw:30.);
  check_approx "counters unchanged on refusal" 80.0 (Live.ingress_used v 0)

let live_release_clamps () =
  let f = fabric2 () in
  let v = Live.create f in
  Live.grab v ~ingress:0 ~egress:0 ~bw:(0.1 +. 0.2);
  Live.release v ~ingress:0 ~egress:0 ~bw:0.1;
  Live.release v ~ingress:0 ~egress:0 ~bw:0.2;
  Alcotest.(check bool) "non-negative" true (Live.ingress_used v 0 >= 0.0)

let live_reset () =
  let f = fabric2 () in
  let v = Live.create f in
  Live.grab v ~ingress:1 ~egress:1 ~bw:42.;
  Live.reset v;
  check_approx "reset" 0.0 (Live.ingress_used v 1)

let suites =
  [
    ( "profile",
      [
        case "empty profile" empty_profile;
        case "single interval semantics" single_interval;
        case "overlapping adds sum" overlapping_adds_sum;
        case "max_over sees interior spike" max_over_sees_interior_spike;
        case "add/remove identity" add_remove_identity;
        case "breakpoints sorted" breakpoints_sorted;
        case "rejects bad intervals" rejects_bad_interval;
        prop_add_remove_cancels;
      ] );
    ( "allocation",
      [ case "derived fields" allocation_fields; case "violations detected" allocation_violations ]
    );
    ( "ledger",
      [
        case "fit and reserve" ledger_fit_and_reserve;
        case "egress constraint" ledger_egress_constraint;
        case "reserve checks capacity" ledger_reserve_checks;
        case "release restores" ledger_release_restores;
        case "zero-length interval holds nothing" ledger_zero_length;
        prop_random_reservations_within_capacity;
      ] );
    ( "live",
      [
        case "grab and release" live_grab_release;
        case "try_grab" live_try_grab;
        case "release clamps residue" live_release_clamps;
        case "reset" live_reset;
      ] );
  ]
