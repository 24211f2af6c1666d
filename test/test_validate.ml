open Helpers
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Validate = Gridbw_metrics.Validate
module Hotspot = Gridbw_metrics.Hotspot
module Flexible = Gridbw_core.Flexible
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types

let alloc ?(id = 1) ?(ingress = 0) ?(egress = 0) ?(volume = 500.) ?(ts = 0.) ?(tf = 10.)
    ?(max_rate = 100.) ?(bw = 50.) ?(sigma = 0.) () =
  Allocation.make ~request:(req ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate ()) ~bw ~sigma

let clean_schedule_is_valid () =
  Alcotest.(check bool) "valid" true (Validate.is_valid (fabric2 ()) [ alloc () ]);
  Alcotest.(check string) "clean report" "schedule is feasible"
    (Validate.report (fabric2 ()) [ alloc () ])

let empty_is_valid () = Alcotest.(check bool) "empty" true (Validate.is_valid (fabric2 ()) [])

let detects_port_overload () =
  let a1 = alloc ~id:1 ~bw:60. () and a2 = alloc ~id:2 ~bw:60. () in
  let vs = Validate.check (fabric2 ()) [ a1; a2 ] in
  (* Both the shared ingress and the shared egress overload. *)
  Alcotest.(check int) "two overloads" 2 (List.length vs);
  match vs with
  | Validate.Port_overload { side = Hotspot.Ingress; port = 0; usage; capacity; _ } :: _ ->
      check_approx "usage" 120.0 usage;
      check_approx "capacity" 100.0 capacity
  | _ -> Alcotest.fail "expected an ingress overload first"

let detects_deadline_miss () =
  let late = alloc ~bw:20. ~sigma:5. () in
  (* 500 MB at 20 MB/s from t=5 -> tau = 30 > tf = 10 *)
  match Validate.check (fabric2 ()) [ late ] with
  | [ Validate.Deadline_miss { request_id = 1; tau; tf } ] ->
      check_approx "tau" 30.0 tau;
      check_approx "tf" 10.0 tf
  | vs -> Alcotest.failf "expected exactly a deadline miss, got %d violations" (List.length vs)

let detects_rate_violation () =
  (* volume 150 at bw 15 from 0: tau = 10 = tf, fine on deadline; but cap
     the host at 10. *)
  let r = req ~id:1 ~volume:100. ~ts:0. ~tf:10. ~max_rate:10. () in
  let a = Allocation.make ~request:r ~bw:15. ~sigma:0. in
  let vs = Validate.check (fabric2 ()) [ a ] in
  Alcotest.(check bool) "rate violation present" true
    (List.exists (function Validate.Rate_above_max _ -> true | _ -> false) vs)

let detects_bad_route () =
  let r = Request.make ~id:1 ~ingress:7 ~egress:0 ~volume:10. ~ts:0. ~tf:10. ~max_rate:10. in
  let a = Allocation.make ~request:r ~bw:1. ~sigma:0. in
  match Validate.check (fabric2 ()) [ a ] with
  | [ Validate.Bad_route { ingress = 7; _ } ] -> ()
  | _ -> Alcotest.fail "expected exactly a bad route"

let detects_duplicates () =
  let a = alloc ~bw:10. () in
  let vs = Validate.check (fabric2 ()) [ a; a ] in
  Alcotest.(check bool) "duplicate flagged" true
    (List.exists (function Validate.Duplicate_request _ -> true | _ -> false) vs)

let report_lists_violations () =
  let a1 = alloc ~id:1 ~bw:60. () and a2 = alloc ~id:2 ~bw:60. () in
  let text = Validate.report (fabric2 ()) [ a1; a2 ] in
  Alcotest.(check bool) "mentions overloads" true
    (String.length text > 0 && text.[0] = '2')

let heuristic_output_always_clean () =
  let reqs = random_requests ~seed:44L ~n:80 (fabric2 ()) in
  List.iter
    (fun kind ->
      let result = Flexible.run kind (fabric2 ()) (Policy.Fraction_of_max 0.8) reqs in
      match Validate.check (fabric2 ()) result.Types.accepted with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s produced %d violations, first: %s"
            (Flexible.heuristic_name kind) (List.length vs)
            (Validate.describe (List.hd vs)))
    [ `Greedy; `Window 11.0; `Window_deferred 11.0 ]

(* A transfer that rounds to zero length (1e-9 MB at 1 MB/s from
   t = 1e9, where the duration is below the ulp) holds its ports for no
   instant: the schedule is feasible, as the sweep counts it. *)
let zero_length_is_valid () =
  let r = req ~id:1 ~volume:1e-9 ~ts:1e9 ~tf:1000000001. ~max_rate:1. () in
  let a = Allocation.make ~request:r ~bw:1. ~sigma:1e9 in
  Alcotest.(check bool) "zero length" true (a.Allocation.tau = a.Allocation.sigma);
  Alcotest.(check string) "feasible" "schedule is feasible" (Validate.report (fabric2 ()) [ a ])

(* The same transfer as a one-request trace: every heuristic of
   [gridbw run] decides it and its self-check finds the schedule
   feasible (exit 0; an infeasible one exits 1, a crash 125). *)
let zero_length_cli () =
  let trace = Filename.temp_file "gridbw-zero" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove trace)
    (fun () ->
      Out_channel.with_open_text trace (fun oc ->
          output_string oc "1,0,0,1e-09,1e9,1000000001,1.0\n");
      List.iter
        (fun h ->
          let code, out = gridbw [ "run"; "--trace"; trace; "--heuristic"; h; "--policy"; "1" ] in
          Alcotest.(check int) (h ^ ": exit status") 0 code;
          if not (contains ~affix:"requests: 1," out) then
            Alcotest.failf "%s: no summary in %S" h out)
        [ "fifo"; "fcfs"; "cumulated"; "minbw"; "minvol"; "greedy"; "window"; "window-deferred";
          "malleable" ])

let suites =
  [
    ( "validate",
      [
        case "clean schedule" clean_schedule_is_valid;
        case "empty schedule" empty_is_valid;
        case "port overload" detects_port_overload;
        case "deadline miss" detects_deadline_miss;
        case "rate violation" detects_rate_violation;
        case "bad route" detects_bad_route;
        case "duplicates" detects_duplicates;
        case "report text" report_lists_violations;
        case "heuristic output always clean" heuristic_output_always_clean;
        case "zero-length allocation" zero_length_is_valid;
        case "gridbw run: every heuristic on a zero-length transfer" zero_length_cli;
      ] );
  ]
