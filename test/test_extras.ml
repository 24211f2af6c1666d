(* Tests for the auxiliary tooling: gnuplot export, diurnal arrivals,
   utilization timelines. *)

open Helpers
module Figure = Gridbw_report.Figure
module Gnuplot = Gridbw_report.Gnuplot
module Spec = Gridbw_workload.Spec
module Diurnal = Gridbw_workload.Diurnal
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Timeline = Gridbw_metrics.Timeline
module Rng = Gridbw_prng.Rng

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

(* --- gnuplot --- *)

let fig () =
  Figure.make ~id:"t-fig" ~title:"a \"quoted\" title" ~x_label:"x" ~y_label:"y"
    [ Figure.series ~label:"s1" [ (1.0, 2.0); (3.0, 4.0) ];
      Figure.series ~label:"s2" [ (1.0, 0.5) ] ]

let gnuplot_script_structure () =
  let s = Gnuplot.script (fig ()) in
  Alcotest.(check bool) "has data block per series" true
    (contains ~needle:"$data0 << EOD" s && contains ~needle:"$data1 << EOD" s);
  Alcotest.(check bool) "plots both" true (contains ~needle:"title \"s2\"" s);
  Alcotest.(check bool) "escapes quotes" true (contains ~needle:"a \\\"quoted\\\" title" s);
  Alcotest.(check bool) "data points present" true (contains ~needle:"3 4" s)

let gnuplot_empty_figure () =
  let empty = Figure.make ~id:"e" ~title:"e" ~x_label:"x" ~y_label:"y" [] in
  Alcotest.(check bool) "no plot line" true
    (contains ~needle:"# no series" (Gnuplot.script empty))

let gnuplot_write_file () =
  let dir = Filename.temp_file "gridbw" "" in
  Sys.remove dir;
  let path = Gnuplot.write ~dir (fig ()) in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Sys.rmdir dir)
    (fun () ->
      Alcotest.(check bool) "file exists" true (Sys.file_exists path);
      Alcotest.(check bool) "named by id" true (Filename.basename path = "t-fig.gp"))

(* --- diurnal --- *)

let day_night_shape () =
  let f = Diurnal.day_night ~base:1.0 ~peak:5.0 ~period:24.0 in
  check_approx "trough at 0" 1.0 (f 0.0);
  check_approx "crest at half period" 5.0 (f 12.0);
  check_approx "periodic" (f 3.0) (f 27.0)

let day_night_validation () =
  (* day_night validates eagerly, before returning the closure. *)
  (match (Diurnal.day_night ~base:2.0 ~peak:1.0 ~period:10.) 0.0 with
  | exception Invalid_argument _ -> ()
  | (_ : float) -> Alcotest.fail "peak < base accepted");
  match (Diurnal.day_night ~base:0. ~peak:1. ~period:0.) 0.0 with
  | exception Invalid_argument _ -> ()
  | (_ : float) -> Alcotest.fail "zero period accepted"

let thinning_matches_mean () =
  let intensity = Diurnal.day_night ~base:0.5 ~peak:1.5 ~period:100.0 in
  (* Mean rate over a whole period is (base + peak) / 2 = 1. *)
  let times =
    Diurnal.arrival_times (rng ~seed:17L ()) intensity ~peak:1.5 ~horizon:40_000.0
  in
  let rate = float_of_int (List.length times) /. 40_000.0 in
  if Float.abs (rate -. 1.0) > 0.05 then Alcotest.failf "thinned rate drifted: %f" rate;
  let sorted = List.sort Float.compare times in
  Alcotest.(check bool) "sorted" true (sorted = times)

let thinning_concentrates_at_peak () =
  let intensity = Diurnal.day_night ~base:0.01 ~peak:2.0 ~period:100.0 in
  let times = Diurnal.arrival_times (rng ()) intensity ~peak:2.0 ~horizon:10_000.0 in
  (* Night = middle half of each period carries nearly all arrivals. *)
  let crest = List.filter (fun t -> let ph = Float.rem t 100. in ph > 25. && ph < 75.) times in
  Alcotest.(check bool) "crest-heavy" true
    (float_of_int (List.length crest) > 0.8 *. float_of_int (List.length times))

let thinning_rejects_underestimated_peak () =
  let intensity = fun _ -> 5.0 in
  match Diurnal.arrival_times (rng ()) intensity ~peak:1.0 ~horizon:100.0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dominating rate violation accepted"

let diurnal_generate_valid_requests () =
  let spec =
    Spec.make ~fabric:(fabric2 ()) ~volumes:(Spec.Uniform_volume { lo = 10.; hi = 100. })
      ~rate_lo:1. ~rate_hi:50. ~mean_interarrival:1. ()
  in
  let intensity = Diurnal.day_night ~base:0.05 ~peak:0.5 ~period:500.0 in
  let reqs = Diurnal.generate (rng ()) spec intensity ~peak:0.5 ~horizon:2_000.0 in
  Alcotest.(check bool) "some arrivals" true (List.length reqs > 10);
  List.iteri
    (fun i (r : Request.t) ->
      Alcotest.(check int) "sequential ids" i r.id;
      Alcotest.(check bool) "routed" true (Request.routed_on r (fabric2 ()));
      Alcotest.(check bool) "within horizon" true (r.ts < 2_000.0))
    reqs

(* Every field's IEEE bits of two seeded draws, flexible and rigid: the
   per-request draw and its RNG call order are fixed. *)
let diurnal_generate_pinned () =
  let intensity = Diurnal.day_night ~base:0.05 ~peak:0.5 ~period:500.0 in
  let b = Buffer.create (1 lsl 16) in
  List.iter
    (fun spec ->
      List.iter
        (fun (r : Request.t) ->
          Printf.bprintf b "%d %d %d" r.id r.ingress r.egress;
          List.iter
            (fun x -> Printf.bprintf b " %Lx" (Int64.bits_of_float x))
            [ r.volume; r.ts; r.tf; r.max_rate ];
          Buffer.add_char b '\n')
        (Diurnal.generate (Rng.create ~seed:7L ()) spec intensity ~peak:0.5 ~horizon:4_000.0))
    [ Spec.paper_flexible ~count:1 ~mean_interarrival:1. (); Spec.paper_rigid ~count:1 ~load:0.5 () ];
  Alcotest.(check string) "digest" "5c0da48901b2b3f5571e3f43f0f433e0" (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- timeline --- *)

let timeline_usage () =
  let f = fabric2 () in
  let r1 = req ~id:1 ~ingress:0 ~egress:1 ~volume:600. ~ts:0. ~tf:10. ~max_rate:60. () in
  let r2 = req ~id:2 ~ingress:0 ~egress:0 ~volume:100. ~ts:5. ~tf:10. ~max_rate:20. () in
  let allocations =
    [ Allocation.make ~request:r1 ~bw:60. ~sigma:0.; Allocation.make ~request:r2 ~bw:20. ~sigma:5. ]
  in
  let tl = Timeline.build f allocations in
  (match Timeline.span tl with
  | Some (lo, hi) ->
      check_approx "span lo" 0.0 lo;
      check_approx "span hi" 10.0 hi
  | None -> Alcotest.fail "expected a span");
  check_approx "ingress 0 early" 60.0 (Timeline.ingress_usage tl 0 ~at:2.0);
  check_approx "ingress 0 overlapped" 80.0 (Timeline.ingress_usage tl 0 ~at:6.0);
  check_approx "total rate" 80.0 (Timeline.total_rate tl ~at:6.0);
  (* half capacity of fabric2 = 200 *)
  check_approx "utilization" 0.4 (Timeline.utilization tl ~at:6.0)

let timeline_sampling () =
  let f = fabric2 () in
  let r = req ~id:1 ~volume:1000. ~ts:0. ~tf:10. ~max_rate:100. () in
  let tl = Timeline.build f [ Allocation.make ~request:r ~bw:100. ~sigma:0. ] in
  let samples = Timeline.sample tl ~points:5 in
  Alcotest.(check int) "five samples" 5 (List.length samples);
  let xs = List.map fst samples in
  check_approx "first at span start" 0.0 (List.hd xs);
  check_approx "last at span end" 10.0 (List.nth xs 4)

let timeline_empty () =
  let tl = Timeline.build (fabric2 ()) [] in
  Alcotest.(check bool) "no span" true (Timeline.span tl = None);
  Alcotest.(check int) "no samples" 0 (List.length (Timeline.sample tl ~points:3))

let suites =
  [
    ( "gnuplot",
      [
        case "script structure" gnuplot_script_structure;
        case "empty figure" gnuplot_empty_figure;
        case "write file" gnuplot_write_file;
      ] );
    ( "diurnal",
      [
        case "day/night intensity shape" day_night_shape;
        case "intensity validation" day_night_validation;
        case "thinning matches mean rate" thinning_matches_mean;
        case "arrivals concentrate at the crest" thinning_concentrates_at_peak;
        case "underestimated peak rejected" thinning_rejects_underestimated_peak;
        case "generated requests valid" diurnal_generate_valid_requests;
        case "generate is bit-pinned" diurnal_generate_pinned;
      ] );
    ( "timeline",
      [
        case "usage accounting" timeline_usage;
        case "uniform sampling" timeline_sampling;
        case "empty timeline" timeline_empty;
      ] );
  ]
