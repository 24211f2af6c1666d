open Helpers
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen
module Trace = Gridbw_workload.Trace
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Rng = Gridbw_prng.Rng

let invalid name f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: expected Invalid_argument" name

let paper_volume_set () =
  let set = Spec.paper_volume_set in
  Alcotest.(check int) "19 values" 19 (Array.length set);
  check_approx "min 10 GB" 10_000.0 set.(0);
  check_approx "max 1 TB" 1_000_000.0 set.(18);
  check_approx "mean" (5_950_000.0 /. 19.0) (Spec.mean_volume Spec.Paper_set)

let spec_validation () =
  invalid "bad rate range" (fun () -> Spec.make ~rate_lo:10. ~rate_hi:5. ~mean_interarrival:1. ());
  invalid "zero interarrival" (fun () -> Spec.make ~mean_interarrival:0. ());
  invalid "zero count" (fun () -> Spec.make ~count:0 ~mean_interarrival:1. ());
  invalid "bad volume range" (fun () ->
      Spec.make ~volumes:(Spec.Uniform_volume { lo = 5.; hi = 1. }) ~mean_interarrival:1. ());
  invalid "bad slack" (fun () ->
      Spec.make ~flexibility:(Spec.Flexible { max_slack = 0.5 }) ~mean_interarrival:1. ());
  invalid "bad load" (fun () -> Spec.paper_rigid ~load:0. ())

let rigid_load_calibration () =
  let spec = Spec.paper_rigid ~load:2.0 () in
  check_approx ~eps:1e-6 "offered load equals target" 2.0 (Spec.offered_load spec)

let generate_shape () =
  let spec = Spec.paper_rigid ~count:200 ~load:1.0 () in
  let reqs = Gen.generate (rng ()) spec in
  Alcotest.(check int) "count" 200 (List.length reqs);
  List.iteri
    (fun i (r : Request.t) -> Alcotest.(check int) "sequential ids" i r.id)
    reqs;
  let sorted = List.for_all2 (fun (a : Request.t) (b : Request.t) -> a.ts <= b.ts)
      (List.filteri (fun i _ -> i < 199) reqs) (List.tl reqs) in
  Alcotest.(check bool) "sorted by arrival" true sorted;
  List.iter
    (fun (r : Request.t) ->
      Alcotest.(check bool) "routed" true (Request.routed_on r spec.Spec.fabric);
      check_approx "rigid" (Request.min_rate r) r.max_rate;
      Alcotest.(check bool) "volume from set" true
        (Array.exists (fun v -> approx v r.volume) Spec.paper_volume_set);
      let mr = Request.min_rate r in
      Alcotest.(check bool) "rate in range" true (mr >= 10. -. 1e-6 && mr <= 1000. +. 1e-6))
    reqs

let generate_flexible () =
  let spec = Spec.paper_flexible ~count:200 ~mean_interarrival:1.0 () in
  let reqs = Gen.generate (rng ()) spec in
  List.iter
    (fun (r : Request.t) ->
      Alcotest.(check bool) "max above min" true (r.max_rate >= Request.min_rate r -. 1e-9);
      Alcotest.(check bool) "max capped by rate_hi" true (r.max_rate <= 1000. +. 1e-6))
    reqs

let generate_bounded_slack () =
  let spec =
    Spec.make ~flexibility:(Spec.Flexible { max_slack = 2.0 }) ~count:300 ~mean_interarrival:1. ()
  in
  let reqs = Gen.generate (rng ()) spec in
  List.iter
    (fun (r : Request.t) ->
      Alcotest.(check bool) "slack bounded" true (r.max_rate /. Request.min_rate r <= 2.0 +. 1e-6))
    reqs

let generate_deterministic () =
  let spec = Spec.paper_rigid ~count:50 ~load:1.0 () in
  let a = Gen.generate (Rng.create ~seed:9L ()) spec in
  let b = Gen.generate (Rng.create ~seed:9L ()) spec in
  Alcotest.(check bool) "same workload from same seed" true
    (List.for_all2
       (fun (x : Request.t) (y : Request.t) ->
         x.id = y.id && x.ts = y.ts && x.volume = y.volume && x.max_rate = y.max_rate)
       a b)

let measured_load_close () =
  let spec = Spec.paper_rigid ~count:3000 ~load:2.0 () in
  let reqs = Gen.generate (rng ~seed:3L ()) spec in
  let measured = Gen.measured_load spec.Spec.fabric reqs in
  if Float.abs (measured -. 2.0) > 0.4 then
    Alcotest.failf "measured load %.3f too far from target 2.0" measured

let horizon_and_span () =
  let r1 = req ~id:1 ~ts:1. ~tf:5. () and r2 = req ~id:2 ~ts:3. ~tf:20. () in
  check_approx "span" 2.0 (Gen.arrival_span [ r1; r2 ]);
  check_approx "singleton span" 0.0 (Gen.arrival_span [ r1 ])

let trace_roundtrip () =
  let spec = Spec.paper_flexible ~count:64 ~mean_interarrival:0.7 () in
  let reqs = Gen.generate (rng ~seed:21L ()) spec in
  let back = Trace.of_string (Trace.to_string reqs) in
  Alcotest.(check int) "count preserved" (List.length reqs) (List.length back);
  List.iter2
    (fun (a : Request.t) (b : Request.t) ->
      if not (a.id = b.id && a.ingress = b.ingress && a.egress = b.egress && a.volume = b.volume
              && a.ts = b.ts && a.tf = b.tf && a.max_rate = b.max_rate)
      then Alcotest.failf "request %d did not round-trip exactly" a.id)
    reqs back

let trace_file_roundtrip () =
  let reqs = [ req ~id:0 ~volume:123.456 (); req ~id:1 ~ts:1.5 ~tf:9.25 ~volume:10. () ] in
  let path = Filename.temp_file "gridbw" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.to_file path reqs;
      let back = Trace.of_file path in
      Alcotest.(check int) "two rows" 2 (List.length back))

let trace_malformed () =
  (match Trace.of_string "id,bad header is fine if exactly 7 fields missing" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "malformed line accepted");
  match Trace.of_string "1,2,3,not_a_float,0,1,5" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "bad float accepted"

let trace_repeated_id () =
  (match Trace.of_string "5,0,0,60000,0,100,1200\n5,1,1,70000,1,101,1400\n" with
  | exception Failure msg -> Alcotest.(check string) "message" "Trace: line 2: id 5 repeats line 1" msg
  | _ -> Alcotest.fail "repeated id accepted");
  let path = Filename.temp_file "gridbw" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc ("id,ingress,egress,volume_mb,ts_s,tf_s,max_rate_mbps\n3,0,0,100,0,10,50\n\n3,1,1,100,0,10,50\n"));
      (match Trace.of_file path with
      | exception Failure msg ->
          Alcotest.(check string) "file lines" "Trace: line 4: id 3 repeats line 2" msg
      | _ -> Alcotest.fail "repeated id accepted from a file");
      List.iter
        (fun cmd -> Alcotest.(check int) (cmd ^ " exits 2") 2 (fst (gridbw [ cmd; "--trace"; path ])))
        [ "run"; "hotspot" ])

let trace_empty () = Alcotest.(check int) "empty" 0 (List.length (Trace.of_string ""))

let suites =
  [
    ( "workload",
      [
        case "paper volume set" paper_volume_set;
        case "spec validation" spec_validation;
        case "rigid load calibration" rigid_load_calibration;
        case "generated shape (rigid)" generate_shape;
        case "generated flexible rates" generate_flexible;
        case "bounded slack" generate_bounded_slack;
        case "deterministic from seed" generate_deterministic;
        slow_case "measured load close to target" measured_load_close;
        case "horizon and span" horizon_and_span;
      ] );
    ( "trace",
      [
        case "string round-trip exact" trace_roundtrip;
        case "file round-trip" trace_file_roundtrip;
        case "malformed input rejected" trace_malformed;
        case "repeated id refused" trace_repeated_id;
        case "empty input" trace_empty;
      ] );
  ]
