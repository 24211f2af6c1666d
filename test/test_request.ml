open Helpers
module Request = Gridbw_request.Request

let invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let validation () =
  invalid "zero volume" (fun () -> req ~volume:0. ());
  invalid "negative volume" (fun () -> req ~volume:(-1.) ());
  invalid "empty window" (fun () -> req ~ts:5. ~tf:5. ());
  invalid "inverted window" (fun () -> req ~ts:5. ~tf:4. ());
  invalid "zero max rate" (fun () -> req ~max_rate:0. ());
  invalid "nan volume" (fun () -> req ~volume:Float.nan ());
  (* 100 MB in 10 s needs 10 MB/s; a 5 MB/s cap can never meet the deadline. *)
  invalid "max below min rate" (fun () -> req ~volume:100. ~ts:0. ~tf:10. ~max_rate:5. ())

let min_rate_value () =
  let r = req ~volume:100. ~ts:0. ~tf:10. () in
  check_approx "min rate" 10.0 (Request.min_rate r)

let min_rate_at_before_ts () =
  let r = req ~volume:100. ~ts:10. ~tf:20. ~max_rate:50. () in
  match Request.min_rate_at r ~now:0.0 with
  | Some rate -> check_approx "clamped to ts" 10.0 rate
  | None -> Alcotest.fail "expected a rate"

let min_rate_at_midwindow () =
  let r = req ~volume:100. ~ts:0. ~tf:10. ~max_rate:50. () in
  match Request.min_rate_at r ~now:5.0 with
  | Some rate -> check_approx "doubled" 20.0 rate
  | None -> Alcotest.fail "expected a rate"

let min_rate_at_closed () =
  let r = req ~volume:100. ~ts:0. ~tf:10. ~max_rate:50. () in
  Alcotest.(check bool) "at tf" true (Request.min_rate_at r ~now:10.0 = None);
  Alcotest.(check bool) "after tf" true (Request.min_rate_at r ~now:11.0 = None)

let rigid_constructor () =
  let r = Request.make_rigid ~id:1 ~ingress:0 ~egress:0 ~bw:25. ~ts:2. ~tf:6. in
  check_approx "volume" 100.0 r.Request.volume;
  check_approx "max rate" 25.0 r.Request.max_rate;
  check_approx "min rate is max rate" 25.0 (Request.min_rate r)

let flexible_detection () =
  let r = req ~volume:100. ~ts:0. ~tf:10. ~max_rate:40. () in
  check_approx "slack" 4.0 (r.Request.max_rate /. Request.min_rate r)

let routing () =
  let f = fabric2 () in
  Alcotest.(check bool) "on fabric" true (Request.routed_on (req ~ingress:1 ~egress:1 ()) f);
  Alcotest.(check bool) "bad ingress" false (Request.routed_on (req ~ingress:2 ()) f);
  Alcotest.(check bool) "bad egress" false (Request.routed_on (req ~egress:5 ()) f)

let ordering () =
  let a = req ~id:1 () and b = req ~id:2 () in
  Alcotest.(check bool) "compare by id" true (Request.compare a b < 0);
  Alcotest.(check int) "equal by id" 0 (Request.compare a (req ~id:1 ~volume:7. ~tf:1. ()))

let prop_make_valid =
  qcase "qcheck: generated requests satisfy their own invariants"
    QCheck2.Gen.(tup4 (float_range 0.1 1e6) (float_range 0.0 1e4) (float_range 0.1 1e4)
                   (float_range 1.0 16.0))
    (fun (volume, ts, dur, slack) ->
      let tf = ts +. dur in
      let min_rate = volume /. dur in
      let r =
        Request.make ~id:0 ~ingress:0 ~egress:0 ~volume ~ts ~tf ~max_rate:(min_rate *. slack)
      in
      Request.min_rate r <= r.Request.max_rate *. (1. +. 1e-9)
      && r.Request.max_rate /. Request.min_rate r >= 1.0 -. 1e-9
      && volume /. r.Request.max_rate <= dur *. (1. +. 1e-9))

let suites =
  [
    ( "request",
      [
        case "constructor validation" validation;
        case "min rate" min_rate_value;
        case "min_rate_at before ts" min_rate_at_before_ts;
        case "min_rate_at mid-window" min_rate_at_midwindow;
        case "min_rate_at closed window" min_rate_at_closed;
        case "rigid constructor" rigid_constructor;
        case "flexible detection" flexible_detection;
        case "routing check" routing;
        case "ordering and equality" ordering;
        prop_make_valid;
      ] );
  ]
