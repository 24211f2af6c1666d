(* Differential tests: the O(log n) Timeline against the pure Profile_ref
   oracle, on random add/remove/query sequences.

   Two generators.  The grid generator draws times and bandwidths as small
   integer multiples of 0.25, so every partial sum is exactly representable
   and the two structures must agree bit-for-bit even though they associate
   additions differently.  The float generator draws arbitrary values and
   compares with the suite's relative tolerance, pinning the rounding gap
   to the last-ulp scale the ledger's 1e-9 admission slack absorbs. *)

open Helpers
module Profile_ref = Gridbw_alloc.Profile_ref
module Timeline = Gridbw_alloc.Timeline
module Port = Gridbw_alloc.Port
module Ledger = Gridbw_alloc.Ledger
module Allocation = Gridbw_alloc.Allocation
module Fabric = Gridbw_topology.Fabric
module Policy = Gridbw_core.Policy
module Flexible = Gridbw_core.Flexible
module Scheduler = Gridbw_core.Scheduler
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen
module Rng = Gridbw_prng.Rng

(* --- random operation sequences --- *)

type op = Add of float * float * float  (* from_, until, bw; bw < 0 releases *)

let apply_ref p (Add (from_, until, bw)) = Profile_ref.add p ~from_ ~until bw
let apply_tl t (Add (from_, until, bw)) = Timeline.add t ~from_ ~until bw

let build ops =
  let tl = Timeline.create () in
  let p = List.fold_left (fun p op -> apply_tl tl op; apply_ref p op) Profile_ref.empty ops in
  (p, tl)

let interval_gen time =
  let open QCheck2.Gen in
  time >>= fun from_ ->
  time >>= fun span ->
  return (from_, from_ +. 1. +. Float.abs span)

(* Exactly-representable times/rates: multiples of 0.25 in a small range. *)
let grid_time = QCheck2.Gen.(map (fun k -> 0.25 *. float_of_int k) (int_range 0 400))
let grid_bw = QCheck2.Gen.(map (fun k -> 0.25 *. float_of_int k) (int_range 1 400))
let float_time = QCheck2.Gen.float_range 0. 100.
let float_bw = QCheck2.Gen.float_range 0.001 100.

(* An op sequence where roughly a third of the adds are later removed with
   the exact same interval and rate, exercising exact cancellation. *)
let ops_gen time bw =
  let open QCheck2.Gen in
  let add_gen =
    interval_gen time >>= fun (from_, until) ->
    bw >>= fun b -> return (Add (from_, until, b))
  in
  list_size (int_range 1 60) (pair add_gen bool) >|= fun tagged ->
  let adds = List.map fst tagged in
  let removals =
    List.filter_map
      (fun (Add (f, u, b), cancel) -> if cancel then Some (Add (f, u, -.b)) else None)
      tagged
  in
  adds @ removals

let grid_ops = ops_gen grid_time grid_bw
let float_ops = ops_gen float_time float_bw

let queries ops =
  (* Probe at every breakpoint, just before/after, and between them. *)
  List.concat_map (fun (Add (f, u, _)) -> [ f; u; f -. 0.1; u +. 0.1; 0.5 *. (f +. u) ]) ops

(* --- exact equivalence on the grid --- *)

let eq_exact name a b = if a <> b && not (a <> a && b <> b) then Alcotest.failf "%s: ref %h vs timeline %h" name a b

let check_equiv ~exact ops =
  let p, tl = build ops in
  let check name a b =
    if exact then eq_exact name a b
    else if not (approx a b) then Alcotest.failf "%s: ref %.17g vs timeline %.17g" name a b
  in
  Alcotest.(check bool) "is_empty" (Profile_ref.is_empty p) (Timeline.is_empty tl);
  List.iter
    (fun t -> check (Printf.sprintf "usage_at %g" t) (Profile_ref.usage_at p t) (Timeline.usage_at tl t))
    (queries ops);
  List.iter
    (fun (Add (f, u, _)) ->
      check
        (Printf.sprintf "max_over [%g,%g)" f u)
        (Profile_ref.max_over p ~from_:f ~until:u)
        (Timeline.max_over tl ~from_:f ~until:u))
    ops;
  check "peak" (Profile_ref.peak p) (Timeline.peak tl);
  let bps_ref = Profile_ref.breakpoints p
  and bps_tl = Timeline.breakpoints_over tl ~from_:neg_infinity ~until:infinity in
  if exact then
    Alcotest.(check (list (float 0.))) "breakpoints" bps_ref bps_tl
  else if List.length bps_ref <> List.length bps_tl then
    Alcotest.failf "breakpoint counts differ: %d vs %d" (List.length bps_ref) (List.length bps_tl);
  true

(* The ranged reader against the oracle's breakpoints filtered to the
   range, on bounds drawn from the op times themselves (so a bound often
   equals a key and must be excluded), from elsewhere on the axis, and
   from the infinities; a range with [from_ >= until] holds no key. *)
let ranges_gen time ops =
  let open QCheck2.Gen in
  let keys = List.concat_map (fun (Add (f, u, _)) -> [ f; u ]) ops in
  let bound =
    frequency [ (3, oneofl keys); (2, time); (1, return neg_infinity); (1, return infinity) ]
  in
  list_size (int_range 1 20) (pair bound bound)

let ops_and_ranges time bw =
  QCheck2.Gen.(ops_gen time bw >>= fun ops -> map (fun rs -> (ops, rs)) (ranges_gen time ops))

let check_breakpoints_over (ops, ranges) =
  let p, tl = build ops in
  List.iter
    (fun (from_, until) ->
      Alcotest.(check (list (float 0.)))
        (Printf.sprintf "breakpoints_over (%g, %g)" from_ until)
        (List.filter (fun k -> from_ < k && k < until) (Profile_ref.breakpoints p))
        (Timeline.breakpoints_over tl ~from_ ~until))
    ((neg_infinity, infinity) :: ranges);
  true

(* argmax reference: scan breakpoints in (from_, until) left to right,
   strictly-greater replaces — the fault injector's historical peak_over. *)
let argmax_ref p ~from_ ~until =
  Profile_ref.breakpoints p
  |> List.filter (fun t -> t > from_ && t < until)
  |> List.fold_left
       (fun (bt, bu) t ->
         let u = Profile_ref.usage_at p t in
         if u > bu then (t, u) else (bt, bu))
       (from_, Profile_ref.usage_at p from_)

let check_argmax ops =
  let p, tl = build ops in
  List.iter
    (fun (Add (f, u, _)) ->
      let rt, ru = argmax_ref p ~from_:f ~until:u in
      let tt, tu = Timeline.argmax_over tl ~from_:f ~until:u in
      if rt <> tt || ru <> tu then
        Alcotest.failf "argmax_over [%g,%g): ref (%g,%g) vs timeline (%g,%g)" f u rt ru tt tu)
    ops;
  true

(* --- unit cases the random sequences may miss --- *)

let exact_cancel () =
  let tl = Timeline.create () in
  Timeline.add tl ~from_:1. ~until:5. 30.;
  Timeline.add tl ~from_:2. ~until:6. 20.;
  Timeline.remove tl ~from_:1. ~until:5. 30.;
  Timeline.remove tl ~from_:2. ~until:6. 20.;
  Alcotest.(check bool) "empty after exact release" true (Timeline.is_empty tl);
  Alcotest.(check (list (float 0.))) "no breakpoints" []
    (Timeline.breakpoints_over tl ~from_:neg_infinity ~until:infinity)

let copy_is_snapshot () =
  let tl = Timeline.create () in
  Timeline.add tl ~from_:0. ~until:10. 5.;
  let snap = Timeline.copy tl in
  Timeline.add tl ~from_:0. ~until:10. 7.;
  check_approx "original sees both" 12. (Timeline.usage_at tl 5.);
  check_approx "snapshot unchanged" 5. (Timeline.usage_at snap 5.)

let rejects_bad_interval () =
  let tl = Timeline.create () in
  (match Timeline.add tl ~from_:3. ~until:3. 1. with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "empty interval accepted");
  match Timeline.max_over tl ~from_:5. ~until:5. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty query interval accepted"

let refused name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: accepted" name

(* A NaN bound is refused like an empty interval: every comparison with
   it is false, so a descent would otherwise answer from an arbitrary
   path. *)
let rejects_nan_bounds () =
  let tl = Timeline.create () in
  Timeline.add tl ~from_:1. ~until:4. 10.;
  refused "max_over from_" (fun () -> Timeline.max_over tl ~from_:Float.nan ~until:5.);
  refused "max_over until" (fun () -> Timeline.max_over tl ~from_:0. ~until:Float.nan);
  refused "argmax_over from_" (fun () -> fst (Timeline.argmax_over tl ~from_:Float.nan ~until:5.));
  refused "argmax_over until" (fun () -> fst (Timeline.argmax_over tl ~from_:0. ~until:Float.nan))

(* -0. and 0. are one key: they merge into one breakpoint and cancel
   exactly, as in the reference map. *)
let signed_zero_is_one_key () =
  let tl = Timeline.create () in
  Timeline.add tl ~from_:(-0.) ~until:5. 10.;
  Timeline.add tl ~from_:0. ~until:3. 5.;
  Alcotest.(check int) "one breakpoint at zero" 3
    (List.length (Timeline.breakpoints_over tl ~from_:neg_infinity ~until:infinity));
  Alcotest.(check (float 0.)) "level at 0." 15. (Timeline.usage_at tl 0.);
  Alcotest.(check (float 0.)) "level at -0." 15. (Timeline.usage_at tl (-0.));
  Alcotest.(check (float 0.)) "max from -0." 15. (Timeline.max_over tl ~from_:(-0.) ~until:4.);
  Timeline.remove tl ~from_:0. ~until:5. 10.;
  Timeline.remove tl ~from_:(-0.) ~until:3. 5.;
  Alcotest.(check bool) "cancels to empty" true (Timeline.is_empty tl)

(* Infinite bounds are answered as before: the whole axis, or one side
   of it, with [from_] the witness when nothing inside beats its level. *)
let infinite_bounds () =
  let tl = Timeline.create () in
  Timeline.add tl ~from_:1. ~until:4. 10.;
  Timeline.add tl ~from_:2. ~until:6. 20.;
  let pair = Alcotest.(pair (float 0.) (float 0.)) in
  Alcotest.(check (float 0.)) "max whole axis" 30. (Timeline.max_over tl ~from_:neg_infinity ~until:infinity);
  Alcotest.check pair "argmax whole axis" (2., 30.) (Timeline.argmax_over tl ~from_:neg_infinity ~until:infinity);
  Alcotest.(check (float 0.)) "max left ray" 10. (Timeline.max_over tl ~from_:neg_infinity ~until:1.5);
  Alcotest.check pair "argmax left ray" (1., 10.) (Timeline.argmax_over tl ~from_:neg_infinity ~until:1.5);
  Alcotest.check pair "argmax empty left ray" (neg_infinity, 0.)
    (Timeline.argmax_over tl ~from_:neg_infinity ~until:0.5);
  Alcotest.(check (float 0.)) "max right ray" 20. (Timeline.max_over tl ~from_:5. ~until:infinity);
  Alcotest.check pair "argmax right ray" (5., 20.) (Timeline.argmax_over tl ~from_:5. ~until:infinity);
  Alcotest.(check (float 0.)) "level at -inf" 0. (Timeline.usage_at tl neg_infinity);
  Alcotest.(check (float 0.)) "level at +inf" 0. (Timeline.usage_at tl infinity)

let argmax_prefers_earliest () =
  let tl = Timeline.create () in
  (* Two disjoint plateaus at the same level: the earlier one wins. *)
  Timeline.add tl ~from_:2. ~until:4. 50.;
  Timeline.add tl ~from_:6. ~until:8. 50.;
  let t, u = Timeline.argmax_over tl ~from_:0. ~until:10. in
  check_approx "peak level" 50. u;
  check_approx "earliest witness" 2. t;
  (* No interior breakpoint above the start level: from_ is the witness. *)
  let t0, u0 = Timeline.argmax_over tl ~from_:2.5 ~until:3.5 in
  check_approx "start level" 50. u0;
  check_approx "start witness" 2.5 t0

(* --- the horizon: a retired timeline against a never-retired twin --- *)

type step = Op of op | Retire of float

(* [ops] with retirements at random positions: removals that cancel an
   earlier add may land after the horizon passed it, and some horizons are
   lower than the current one. *)
let with_retires time ops =
  let open QCheck2.Gen in
  let n = List.length ops in
  list_size (int_range 0 6) (pair (int_range 0 n) time) >|= fun rs ->
  let retires_at i = List.filter_map (fun (p, h) -> if p = i then Some (Retire h) else None) rs in
  List.concat (List.mapi (fun i op -> retires_at i @ [ Op op ]) ops) @ retires_at n

let grid_steps = QCheck2.Gen.(grid_ops >>= with_retires grid_time)
let float_steps = QCheck2.Gen.(float_ops >>= with_retires float_time)

(* After every step, every answer at or after the horizon must match the
   twin that keeps the whole history: exactly on the grid, within the
   suite's tolerance on arbitrary floats, where an argmax witness must
   still reach the twin's level. *)
let check_retired ~exact steps =
  let plain = Timeline.create () and retired = Timeline.create () in
  let horizon = ref neg_infinity in
  let points =
    List.concat_map
      (function Op (Add (f, u, _)) -> [ f; u; f -. 0.1; u +. 0.1; 0.5 *. (f +. u) ] | Retire h -> [ h; h +. 0.1 ])
      steps
  in
  let ranges = List.filter_map (function Op (Add (f, u, _)) -> Some (f, u) | Retire _ -> None) steps in
  let check name a b =
    if exact then eq_exact name a b
    else if not (approx a b) then Alcotest.failf "%s: whole history %.17g vs retired %.17g" name a b
  in
  List.iter
    (fun step ->
      (match step with
      | Op op ->
          apply_tl plain op;
          apply_tl retired op
      | Retire h ->
          Timeline.retire_before retired h;
          horizon := Float.max !horizon h);
      let h = !horizon in
      List.iter
        (fun x ->
          if x >= h then check (Printf.sprintf "usage_at %g" x) (Timeline.usage_at plain x) (Timeline.usage_at retired x))
        points;
      List.iter
        (fun (f, u) ->
          let f = Float.max f h in
          if f < u then begin
            let name = Printf.sprintf "[%g,%g) behind %g" f u h in
            check ("max_over " ^ name) (Timeline.max_over plain ~from_:f ~until:u) (Timeline.max_over retired ~from_:f ~until:u);
            let pt, pl = Timeline.argmax_over plain ~from_:f ~until:u in
            let rt, rl = Timeline.argmax_over retired ~from_:f ~until:u in
            check ("argmax_over level " ^ name) pl rl;
            if exact then eq_exact ("argmax_over witness " ^ name) pt rt
            else check ("argmax_over witness level " ^ name) pl (Timeline.usage_at plain rt)
          end)
        ((h, infinity) :: ranges);
      check "peak" (Float.max 0. (Timeline.max_over plain ~from_:h ~until:infinity)) (Timeline.peak retired))
    steps;
  true

let retired_fixture () =
  let plain = Timeline.create () in
  Timeline.add plain ~from_:1. ~until:4. 10.;
  Timeline.add plain ~from_:2. ~until:9. 20.;
  Timeline.add plain ~from_:6. ~until:8. 5.;
  let retired = Timeline.copy plain in
  Timeline.retire_before retired 5.;
  (plain, retired)

let below_horizon_raises () =
  let _, tl = retired_fixture () in
  refused "usage_at" (fun () -> Timeline.usage_at tl 4.9);
  refused "usage_at -inf" (fun () -> Timeline.usage_at tl neg_infinity);
  refused "max_over" (fun () -> Timeline.max_over tl ~from_:4. ~until:7.);
  refused "argmax_over" (fun () -> fst (Timeline.argmax_over tl ~from_:neg_infinity ~until:7.));
  refused "retire_before NaN" (fun () -> Timeline.retire_before tl Float.nan);
  refused "retire_before +inf" (fun () -> Timeline.retire_before tl infinity);
  Alcotest.(check (float 0.)) "at the horizon" 20. (Timeline.usage_at tl 5.);
  Alcotest.(check (float 0.)) "from the horizon" 25. (Timeline.max_over tl ~from_:5. ~until:infinity)

(* A delta behind the horizon counts from the horizon on; an interval
   that ends at or before it leaves every answer unchanged. *)
let adds_behind_horizon () =
  let plain, retired = retired_fixture () in
  let both f = f plain; f retired in
  both (fun tl -> Timeline.add tl ~from_:3. ~until:7. 4.);
  both (fun tl -> Timeline.add tl ~from_:0. ~until:2. 50.);
  both (fun tl -> Timeline.add tl ~from_:4.5 ~until:5. 50.);
  both (fun tl -> Timeline.remove tl ~from_:2. ~until:9. 20.);
  List.iter
    (fun x ->
      Alcotest.(check (float 0.)) (Printf.sprintf "usage_at %g" x) (Timeline.usage_at plain x)
        (Timeline.usage_at retired x))
    [ 5.; 6.; 6.5; 7.; 8.; 9.; 100. ];
  Alcotest.(check (float 0.)) "straddling add counted" 4. (Timeline.usage_at retired 5.);
  Alcotest.(check (float 0.)) "released across the horizon" 0. (Timeline.usage_at retired 8.)

let lower_horizon_is_noop () =
  let plain, tl = retired_fixture () in
  Timeline.retire_before tl 3.;
  Timeline.retire_before tl 5.;
  refused "usage_at behind the first horizon" (fun () -> Timeline.usage_at tl 4.);
  List.iter
    (fun x ->
      Alcotest.(check (float 0.)) (Printf.sprintf "usage_at %g" x) (Timeline.usage_at plain x)
        (Timeline.usage_at tl x))
    [ 5.; 6.; 8.; 9. ]

(* The copy keeps the horizon and the base level. *)
let copy_keeps_base () =
  let _, tl = retired_fixture () in
  let c = Timeline.copy tl in
  Timeline.add tl ~from_:5. ~until:6. 1.;
  Alcotest.(check (float 0.)) "copy keeps the base" 20. (Timeline.usage_at c 5.);
  refused "copy keeps the horizon" (fun () -> Timeline.usage_at c 4.)

(* [peak] and [within_capacity] look at [horizon, ∞) only: an overload
   behind the horizon no longer counts. *)
let peak_from_horizon () =
  let plain, tl = retired_fixture () in
  Alcotest.(check (float 0.)) "whole-history peak" 30. (Timeline.peak plain);
  Alcotest.(check (float 0.)) "peak from the horizon" 25. (Timeline.peak tl);
  let l = Ledger.create (fabric2 ()) in
  Ledger.reserve_interval l ~ingress:0 ~egress:1 ~bw:150. ~from_:0. ~until:10.;
  Ledger.reserve_interval l ~ingress:0 ~egress:1 ~bw:60. ~from_:10. ~until:20.;
  Alcotest.(check bool) "overloaded before" false (Ledger.within_capacity l);
  Ledger.retire_before l 10.;
  Alcotest.(check bool) "within capacity from the horizon" true (Ledger.within_capacity l);
  check_approx "level at the horizon" 60. (Ledger.usage_at l (Port.Ingress 0) 10.)

(* The ranged reader keeps the horizon rule of the other queries: a
   range that starts behind the horizon or has a NaN bound raises, and
   one that starts at or after it lists what the tree still holds. *)
let ranged_reader_refuses () =
  let plain, tl = retired_fixture () in
  refused "breakpoints_over behind the horizon" (fun () -> Timeline.breakpoints_over tl ~from_:4.9 ~until:7.);
  refused "breakpoints_over from -inf" (fun () ->
      Timeline.breakpoints_over tl ~from_:neg_infinity ~until:infinity);
  refused "breakpoints_over NaN from_" (fun () -> Timeline.breakpoints_over plain ~from_:Float.nan ~until:7.);
  refused "breakpoints_over NaN until" (fun () -> Timeline.breakpoints_over plain ~from_:0. ~until:Float.nan);
  let keys = Alcotest.(list (float 0.)) in
  Alcotest.check keys "from the horizon" [ 6.; 8.; 9. ] (Timeline.breakpoints_over tl ~from_:5. ~until:infinity);
  Alcotest.check keys "open at both ends" [ 8. ] (Timeline.breakpoints_over tl ~from_:6. ~until:9.);
  Alcotest.check keys "whole history" [ 1.; 2.; 4.; 6.; 8.; 9. ]
    (Timeline.breakpoints_over plain ~from_:neg_infinity ~until:infinity);
  let l = Ledger.create (fabric2 ()) in
  Ledger.reserve_interval l ~ingress:0 ~egress:1 ~bw:10. ~from_:0. ~until:10.;
  Ledger.retire_before l 5.;
  refused "Ledger.breakpoints_over behind the horizon" (fun () ->
      Ledger.breakpoints_over l (Port.Ingress 0) ~from_:0. ~until:10.);
  Alcotest.check keys "Ledger from the horizon" [ 10. ]
    (Ledger.breakpoints_over l (Port.Ingress 0) ~from_:5. ~until:infinity)

(* --- ledger invariants on the new substrate --- *)

let ledger_within_capacity_random () =
  let fabric = fabric2 () in
  let l = Ledger.create fabric in
  let rng = rng ~seed:11L () in
  let reqs = List.init 200 (random_request rng fabric) in
  List.iter
    (fun r ->
      let a = Allocation.make ~request:r ~bw:(Gridbw_request.Request.min_rate r) ~sigma:r.Gridbw_request.Request.ts in
      if Ledger.fits l a then Ledger.reserve l a)
    reqs;
  Alcotest.(check bool) "within_capacity" true (Ledger.within_capacity l)

let ledger_headroom_consistent () =
  let fabric = fabric2 () in
  let l = Ledger.create fabric in
  Ledger.reserve_interval l ~ingress:0 ~egress:1 ~bw:60. ~from_:0. ~until:10.;
  check_approx "ingress headroom" 40. (Ledger.headroom_over l (Port.Ingress 0) ~from_:0. ~until:10.);
  check_approx "egress headroom" 40. (Ledger.headroom_over l (Port.Egress 1) ~from_:0. ~until:10.);
  check_approx "idle port" 100. (Ledger.headroom_over l (Port.Ingress 1) ~from_:0. ~until:10.);
  check_approx "clear interval" 100. (Ledger.headroom_over l (Port.Ingress 0) ~from_:10. ~until:20.);
  (* Oversubscription (capacity cut below commitment) shows as negative. *)
  Ledger.set_fabric l
    (Fabric.make ~ingress:[| 50.; 100. |] ~egress:[| 100.; 100. |]);
  check_approx "negative headroom" (-10.)
    (Ledger.headroom_over l (Port.Ingress 0) ~from_:0. ~until:10.)

let probe_count_tracks_range_queries () =
  let fabric = fabric2 () in
  let l = Ledger.create fabric in
  Alcotest.(check int) "fresh ledger has no probes" 0 (Ledger.probe_count l);
  Ledger.reserve_interval l ~ingress:0 ~egress:1 ~bw:35. ~from_:1. ~until:7.;
  Alcotest.(check int) "unchecked reserve does not probe" 0 (Ledger.probe_count l);
  ignore (Ledger.argmax_over l (Port.Ingress 0) ~from_:0. ~until:10.);
  Alcotest.(check int) "argmax_over is one probe" 1 (Ledger.probe_count l);
  ignore (Ledger.headroom_over l (Port.Egress 1) ~from_:0. ~until:10.);
  ignore (Ledger.argmax_over l (Port.Egress 1) ~from_:0. ~until:10.);
  Alcotest.(check int) "argmax/headroom are one probe each" 3 (Ledger.probe_count l);
  ignore (Ledger.fits_interval l ~ingress:0 ~egress:1 ~bw:10. ~from_:0. ~until:10.);
  Alcotest.(check int) "fits_interval is two probes" 5 (Ledger.probe_count l);
  (* Point queries and breakpoint listings are not range probes. *)
  ignore (Ledger.usage_at l (Port.Ingress 0) 5.);
  ignore (Ledger.breakpoints_over l (Port.Ingress 0) ~from_:0. ~until:10.);
  Alcotest.(check int) "usage_at/breakpoints_over do not probe" 5 (Ledger.probe_count l)

(* --- Ledger.copy: the same bits, and no sharing --- *)

(* Ports derive from the op's interval, so a cancelling removal (same
   interval, negated bw) lands on the same ports as its add.  A
   retirement moves every port's horizon. *)
let ledger_of steps =
  let l = Ledger.create (fabric2 ()) in
  List.iter
    (function
      | Op (Add (f, u, b)) ->
          let i = abs (int_of_float (f *. 4.)) mod 2 and e = abs (int_of_float (u *. 4.)) mod 2 in
          if b > 0. then Ledger.reserve_interval l ~ingress:i ~egress:e ~bw:b ~from_:f ~until:u
          else Ledger.release_interval l ~ingress:i ~egress:e ~bw:(-.b) ~from_:f ~until:u
      | Retire h -> Ledger.retire_before l h)
    steps;
  l

let ops_of steps = List.filter_map (function Op op -> Some op | Retire _ -> None) steps

(* Every answer a ledger gives at or after the steps' horizon, over the
   ops' points and ranges, on every port, as IEEE bits. *)
let answers steps l =
  let h = List.fold_left (fun h -> function Retire r -> Float.max h r | Op _ -> h) neg_infinity steps in
  let ops = ops_of steps in
  let ports = [ Port.Ingress 0; Port.Ingress 1; Port.Egress 0; Port.Egress 1 ] in
  List.concat_map
    (fun port ->
      Ledger.capacity l port
      :: List.map (Ledger.usage_at l port) (List.filter (fun x -> x >= h) (queries ops))
      @ List.concat_map
          (fun (Add (from_, until, _)) ->
            let from_ = Float.max from_ h in
            if from_ < until then begin
              let at, level = Ledger.argmax_over l port ~from_ ~until in
              [ at; level ]
            end
            else [])
          ops)
    ports
  |> List.map Int64.bits_of_float

(* The copy answers with the original's bits, on grid ops (where exact
   cancellations empty a port's tree) and on arbitrary floats, with
   retirements among them, so the copy is taken after nodes were freed;
   then a booking, a release and a fabric swap on either side leave the
   other's answers as they were. *)
let check_ledger_copy steps =
  let l = ledger_of steps in
  let before = answers steps l in
  let c = Ledger.copy l in
  let same what want got = Alcotest.(check (list int64)) what want got in
  Alcotest.(check int) "probe count carried over" (Ledger.probe_count l) (Ledger.probe_count c);
  same "the copy's bits" before (answers steps c);
  let halved = Fabric.uniform ~ingress_count:2 ~egress_count:2 ~capacity:50.0 in
  let (Add (f, u, b)) = List.hd (ops_of steps) in
  let touch l =
    Ledger.reserve_interval l ~ingress:0 ~egress:1 ~bw:7.5 ~from_:(f -. 1.) ~until:(u +. 1.);
    Ledger.release_interval l ~ingress:1 ~egress:0 ~bw:(Float.abs b) ~from_:f ~until:u;
    Ledger.set_fabric l halved
  in
  touch l;
  same "the copy after the original changed" before (answers steps c);
  let after = answers steps l in
  touch c;
  same "the original after the copy changed" after (answers steps l);
  true

(* --- scheduler interface vs direct heuristic calls --- *)

let scheduler_matches_direct () =
  let spec =
    Spec.make ~fabric:(fabric2 ()) ~volumes:(Spec.Fixed_volume 500.) ~rate_lo:10. ~rate_hi:100.
      ~count:60 ~mean_interarrival:0.8 ()
  in
  let requests = Gen.generate (Rng.create ~seed:5L ()) spec in
  let policy = Policy.Fraction_of_max 0.8 in
  let direct = Flexible.run (`Window 5.) spec.Spec.fabric policy requests in
  let via = Scheduler.run (Scheduler.of_flexible (`Window 5.) policy) spec.Spec.fabric requests in
  Alcotest.(check (list int)) "same accepted ids"
    (accepted_ids direct) (accepted_ids via);
  Alcotest.(check string) "name" "window(5)/f=0.80"
    (Scheduler.name (Scheduler.of_flexible (`Window 5.) policy));
  Alcotest.(check int) "shipped schedulers" 11 (List.length (Scheduler.shipped ()));
  match Scheduler.find (Scheduler.shipped ()) "fcfs" with
  | Some s ->
      let r = Scheduler.run s (fabric2 ()) requests in
      Alcotest.(check bool) "fcfs runs" true
        (List.length r.Gridbw_core.Types.accepted + List.length r.Gridbw_core.Types.rejected
        = List.length requests)
  | None -> Alcotest.fail "fcfs not found by name"

let suites =
  [
    ( "alloc-timeline",
      [
        qcase ~count:300 "differential: exact on grid ops" grid_ops (check_equiv ~exact:true);
        qcase ~count:300 "differential: tolerant on float ops" float_ops (check_equiv ~exact:false);
        qcase ~count:200 "differential: argmax_over on grid ops" grid_ops check_argmax;
        qcase ~count:200 "differential: breakpoints_over on grid ops" (ops_and_ranges grid_time grid_bw)
          check_breakpoints_over;
        qcase ~count:200 "differential: breakpoints_over on float ops" (ops_and_ranges float_time float_bw)
          check_breakpoints_over;
        case "exact cancellation empties the tree" exact_cancel;
        case "copy is a deep snapshot" copy_is_snapshot;
        case "rejects bad intervals" rejects_bad_interval;
        case "argmax prefers the earliest witness" argmax_prefers_earliest;
        case "NaN bounds are refused" rejects_nan_bounds;
        case "-0. and 0. are one key" signed_zero_is_one_key;
        case "infinite bounds answer as before" infinite_bounds;
      ] );
    ( "alloc-horizon",
      [
        qcase ~count:100 "retired vs whole history: exact on grid ops" grid_steps (check_retired ~exact:true);
        qcase ~count:100 "retired vs whole history: tolerant on float ops" float_steps
          (check_retired ~exact:false);
        case "queries below the horizon raise" below_horizon_raises;
        case "adds behind or across the horizon count from it on" adds_behind_horizon;
        case "a lower horizon is a no-op" lower_horizon_is_noop;
        case "copy keeps the horizon and base" copy_keeps_base;
        case "peak and within_capacity answer from the horizon" peak_from_horizon;
        case "the ranged reader refuses a range behind the horizon" ranged_reader_refuses;
      ] );
    ( "ledger-port",
      [
        case "within_capacity on random workload" ledger_within_capacity_random;
        qcase ~count:200 "copy: same bits on grid ops, no sharing" grid_steps check_ledger_copy;
        qcase ~count:200 "copy: same bits on float ops, no sharing" float_steps check_ledger_copy;
        case "headroom_over is capacity minus max" ledger_headroom_consistent;
        case "probe_count tracks range queries" probe_count_tracks_range_queries;
        case "scheduler dispatch matches direct call" scheduler_matches_direct;
      ] );
  ]
