open Helpers
module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event
module Sink = Gridbw_obs.Sink
module Event_codec = Gridbw_obs.Event_codec
module Codec = Gridbw_wire.Codec
module Metrics = Gridbw_obs.Metrics
module Replay = Gridbw_metrics.Replay
module Summary = Gridbw_metrics.Summary
module Flexible = Gridbw_core.Flexible
module Rigid = Gridbw_core.Rigid
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen

(* --- metrics registry --- *)

let counters_and_gauges () =
  let m = Metrics.create () in
  let c = Metrics.counter m "reqs" in
  Metrics.incr c;
  Metrics.add c 4;
  Alcotest.(check int) "counter accumulates" 5 (Metrics.value c);
  Alcotest.(check int) "find-or-create shares state" 5 (Metrics.value (Metrics.counter m "reqs"));
  let g = Metrics.gauge m "depth" in
  Metrics.set g 3.5;
  Metrics.set g 2.0;
  check_approx "gauge keeps last value" 2.0 (Metrics.gauge_value (Metrics.gauge m "depth"))

let histogram_buckets () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "lat" in
  List.iter (Metrics.observe h) [ 0.5; 1.0; 3.0 ];
  Alcotest.(check int) "count" 3 (Metrics.hist_count h);
  check_approx "sum" 4.5 (Metrics.hist_sum h);
  (* <=1 lands in the le=1 bucket; 3.0 in (2,4]. *)
  Alcotest.(check (list (pair (float 0.) int)))
    "buckets" [ (1.0, 2); (4.0, 1) ] (Metrics.hist_buckets h)

(* The bucket as [Float.frexp] gives it: 0 for samples <= 1 and for
   non-finite ones, else frexp's exponent e (2^(e-1) <= v < 2^e), capped
   at the last bucket. *)
let frexp_bucket v =
  if not (Float.is_finite v) || v <= 1.0 then 0 else Int.min 63 (snd (Float.frexp v))

(* [v] moved [k] ulps up (k > 0) or down. *)
let rec ulps v k =
  if k > 0 then ulps (Float.succ v) (k - 1) else if k < 0 then ulps (Float.pred v) (k + 1) else v

let bucket_sample_gen =
  QCheck2.Gen.(
    let sign = map (fun neg -> if neg then Float.neg else Fun.id) bool in
    let* flip = sign in
    map flip
      (oneof
         [
           (* any bit pattern: NaNs, infinities and subnormals included *)
           map Int64.float_of_bits int64;
           (* powers of two and their neighbours, across the whole range *)
           map2 (fun e k -> ulps (Float.ldexp 1. e) k) (int_range (-1074) 1023) (int_range (-3) 3);
           (* subnormals *)
           map (fun m -> Int64.float_of_bits (Int64.of_int m)) (int_range 1 0xF_FFFF_FFFF_FFFF);
           (* past the last bucket: 2^63 and above *)
           map2 (fun m e -> Float.ldexp (1. +. m) e) (float_range 0. 1.) (int_range 62 1023);
           oneofl [ Float.infinity; Float.nan; 0.; 1.; Float.max_float; Float.min_float ];
         ]))

let prop_bucket_is_frexp =
  qcase ~count:5000 "histogram bucket equals the frexp formula" bucket_sample_gen (fun v ->
      Metrics.bucket_of v = frexp_bucket v)

(* Every boundary, one by one: each power of two and its neighbours. *)
let bucket_boundaries () =
  for e = -1074 to 1023 do
    for k = -2 to 2 do
      let v = ulps (Float.ldexp 1. e) k in
      if Metrics.bucket_of v <> frexp_bucket v then
        Alcotest.failf "bucket of %h: %d, frexp says %d" v (Metrics.bucket_of v) (frexp_bucket v)
    done
  done;
  List.iter
    (fun v ->
      Alcotest.(check int) (Printf.sprintf "bucket of %h" v) (frexp_bucket v) (Metrics.bucket_of v))
    [ Float.infinity; Float.neg_infinity; Float.nan; -0.; Float.ldexp 1. 63; Float.pred (Float.ldexp 1. 63) ]

(* Observing a sample, the serving path's per-request cost, allocates
   nothing: the samples are boxed before the count starts. *)
let observe_allocates_nothing () =
  let h = Metrics.histogram (Metrics.create ()) "h" in
  let observe = Metrics.observe h in
  let samples = [ 0.5; 3.0; 1e300; Float.nan; Float.infinity; 1024.; 7e-310 ] in
  List.iter observe samples;
  let rounds = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    List.iter observe samples
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "samples counted" ((rounds + 1) * List.length samples) (Metrics.hist_count h);
  if words > 64. then
    Alcotest.failf "%.0f words for %d samples" words (rounds * List.length samples)

let kind_mismatch_raises () =
  let m = Metrics.create () in
  ignore (Metrics.counter m "x");
  match Metrics.histogram m "x" with
  | _ -> Alcotest.fail "expected Invalid_argument on kind mismatch"
  | exception Invalid_argument _ -> ()

let prometheus_dump () =
  let m = Metrics.create () in
  Metrics.add (Metrics.counter m "accepted") 2;
  Metrics.observe (Metrics.histogram m "lat") 3.0;
  let text = Metrics.to_prometheus m in
  let has s = Alcotest.(check bool) ("contains " ^ s) true (contains ~affix:s text) in
  has "# TYPE accepted counter";
  has "accepted 2";
  has "# TYPE lat histogram";
  has "lat_bucket{le=\"+Inf\"} 1";
  has "lat_count 1";
  Alcotest.(check string) "dump is deterministic" text (Metrics.to_prometheus m)

(* --- sinks --- *)

let mark i = Event.Dispatch { time = float_of_int i; pending = i }
let event_frame ev = Codec.to_string (module Event_codec.Binary) ev

(* Two buffers fed by one tee hold the same frames. *)
let tee_duplicates () =
  let a = Buffer.create 64 and b = Buffer.create 64 in
  let t = Sink.tee (Sink.binary_buffer a) (Sink.binary_buffer b) in
  t.Sink.emit (mark 1);
  Alcotest.(check string) "left got it" (event_frame (mark 1)) (Buffer.contents a);
  Alcotest.(check string) "right got the same bytes" (Buffer.contents a) (Buffer.contents b)

(* --- event binary round-trip --- *)

let sample_events =
  [
    Event.Arrival
      { time = 1.25; seq = 3; id = 7; ingress = 1; egress = 2; volume = 100.5; ts = 1.25;
        tf = 90.0; max_rate = 33.3 };
    Event.Accept
      { time = 2.0; id = 7; ingress = 1; egress = 2; volume = 100.5; ts = 1.25; tf = 90.0;
        max_rate = 33.3; bw = 12.5; sigma = 2.0; shard = None };
    Event.Accept
      { time = 2.5; id = 10; ingress = 1; egress = 2; volume = 10.0; ts = 1.25; tf = 90.0;
        max_rate = 33.3; bw = 2.5; sigma = 2.5; shard = Some 3 };
    Event.Reject
      { time = 3.0; id = 8; reason = "port-saturated"; port = Some (Event.Ingress, 4);
        headroom = Some 0.125; shard = Some 0 };
    Event.Reject
      { time = 3.5; id = 9; reason = "deadline-unreachable"; port = None; headroom = None;
        shard = None };
    Event.Preempt { time = 4.0; id = 7; bw = 12.5; shard = Some 1 };
    Event.Reshape
      { time = 4.5; id = 11; ingress = 1; egress = 2; volume = 40.0; ts = 4.5; tf = 60.0;
        max_rate = 20.0; profile = [| (4.5, 6.5, 20.0) |];
        revised = [| (7, [| (2.0, 9.0, 10.0) |]) |]; shard = None };
    Event.Shed { time = 5.0; side = Event.Egress; port = 2; excess = 7.5; victims = 3 };
    Event.Capacity { time = 6.0; side = Event.Ingress; port = 0; capacity = 50.0 };
    Event.Dispatch { time = 7.0; pending = 4 };
  ]

let binary_round_trip e = Codec.of_string (module Event_codec.Binary) (event_frame e)

let event_round_trip () =
  List.iter
    (fun e ->
      match binary_round_trip e with
      | Ok e' ->
          Alcotest.(check bool) ("round-trip " ^ Event.kind e) true (e = e')
      | Error msg -> Alcotest.failf "%s failed to parse back: %s" (Event.kind e) msg)
    sample_events

let finite f = if Float.is_finite f then f else 1.5

let float_fields_round_trip =
  qcase ~count:200 "arbitrary float fields survive the binary round-trip"
    QCheck2.Gen.(triple float float float)
    (fun (a, b, c) ->
      let volume = Float.abs (finite a) +. 1e-9 and ts = finite b and bw = Float.abs (finite c) +. 1e-9 in
      let e =
        Event.Accept
          { time = ts; id = 0; ingress = 0; egress = 0; volume; ts; tf = ts +. 1.0;
            max_rate = bw; bw; sigma = ts; shard = None }
      in
      binary_round_trip e = Ok e)

(* --- ctx behaviour --- *)

let disabled_is_inert () =
  Obs.count Obs.disabled "inert_counter";
  Obs.observe Obs.disabled "inert_hist" 1.0;
  Obs.event Obs.disabled (fun () -> Alcotest.fail "thunk must not run");
  let dump = Metrics.to_prometheus (Obs.metrics Obs.disabled) in
  Alcotest.(check bool) "registry untouched" false (contains ~affix:"inert" dump)

let unit_test_span = Obs.span_key "unit_test"

let span_records_and_returns () =
  let obs = Obs.create () in
  Alcotest.(check int) "span returns f's value" 42 (Obs.span obs unit_test_span (fun () -> 42));
  let h = Metrics.histogram (Obs.metrics obs) "span_unit_test_ns" in
  Alcotest.(check int) "one observation" 1 (Metrics.hist_count h);
  (match Obs.span obs unit_test_span (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "exception must propagate"
  | exception Failure _ -> ());
  Alcotest.(check int) "failed span still observed" 2 (Metrics.hist_count h)

(* A microsecond clock reads 0 ns for most sub-microsecond bodies, and
   every such sample lands in the le="1" bucket.  The body takes about
   150 ns on a 2-vCPU x86-64 host; with gettimeofday, 80% of its spans
   read 0 there. *)
let span_clock_resolves_nanoseconds () =
  let obs = Obs.create () in
  let k = Obs.span_key "clock_test" in
  let body () =
    let acc = ref 0 in
    for i = 1 to 200 do
      acc := !acc + Sys.opaque_identity i
    done;
    ignore (Sys.opaque_identity !acc)
  in
  for _ = 1 to 10_000 do
    Obs.span obs k body
  done;
  let h = Metrics.histogram (Obs.metrics obs) "span_clock_test_ns" in
  let zero = Option.value ~default:0 (List.assoc_opt 1.0 (Metrics.hist_buckets h)) in
  Alcotest.(check int) "every span observed" 10_000 (Metrics.hist_count h);
  if 2 * zero >= Metrics.hist_count h then
    Alcotest.failf "%d of 10000 spans of a >=100 ns body read <= 1 ns" zero

let keys_resolve_lazily_per_registry () =
  let k = Metrics.counter_key "keyed_total" and g = Metrics.gauge_key "keyed_level" in
  let a = Obs.create () and b = Obs.create () in
  Alcotest.(check bool) "nothing registered before first use" false
    (contains ~affix:"keyed" (Metrics.to_prometheus (Obs.metrics a)));
  Obs.incr a k;
  Obs.incr a k;
  Obs.count a "keyed_total";
  Obs.set a g 2.5;
  Alcotest.(check int) "key and name reach one counter" 3
    (Metrics.value (Metrics.counter (Obs.metrics a) "keyed_total"));
  check_approx "gauge set through its key" 2.5
    (Metrics.gauge_value (Metrics.gauge (Obs.metrics a) "keyed_level"));
  Alcotest.(check bool) "another registry is untouched" false
    (contains ~affix:"keyed" (Metrics.to_prometheus (Obs.metrics b)));
  Obs.incr b k;
  Alcotest.(check int) "each registry resolves its own instrument" 1
    (Metrics.value (Metrics.counter_of (Obs.metrics b) k));
  Obs.incr Obs.disabled k;
  Alcotest.(check bool) "disabled ctx registers nothing" false
    (contains ~affix:"keyed" (Metrics.to_prometheus (Obs.metrics Obs.disabled)));
  match Metrics.histogram_of (Obs.metrics a) (Metrics.histogram_key "keyed_total") with
  | _ -> Alcotest.fail "a key of the wrong kind must raise"
  | exception Invalid_argument _ -> ()

let decision_signature (r : Types.result) =
  List.map
    (fun (a : Gridbw_alloc.Allocation.t) ->
      (a.Gridbw_alloc.Allocation.request.Request.id, a.Gridbw_alloc.Allocation.bw,
       a.Gridbw_alloc.Allocation.sigma))
    r.Types.accepted

let tracing_does_not_change_decisions () =
  let f = fabric2 () in
  let reqs = random_requests ~seed:5L ~n:60 f in
  let plain = Flexible.run `Greedy f (Policy.Fraction_of_max 0.8) reqs in
  let buf = Buffer.create 1024 in
  let obs = Obs.create ~sink:(Sink.binary_buffer buf) () in
  let traced =
    Flexible.run ~ctx:(Gridbw_core.Runtime.make ~obs ()) `Greedy f
      (Policy.Fraction_of_max 0.8) reqs
  in
  Alcotest.(check bool) "identical accept stream" true
    (decision_signature plain = decision_signature traced);
  Alcotest.(check int) "identical reject count" (List.length plain.Types.rejected)
    (List.length traced.Types.rejected);
  match Replay.of_string ~default:(Fun.const f) (Buffer.contents buf) with
  | Error msg -> Alcotest.failf "trace did not decode: %s" msg
  | Ok r ->
      Alcotest.(check bool) "timestamps monotone" true (Replay.monotone r.Replay.events);
      Alcotest.(check int) "every accept traced" (List.length plain.Types.accepted)
        (List.length r.Replay.accepted)

(* --- trace replay --- *)

let check_summary_exact (live : Summary.t) (replayed : Summary.t) =
  Alcotest.(check int) "total" live.Summary.total replayed.Summary.total;
  Alcotest.(check int) "accepted" live.Summary.accepted replayed.Summary.accepted;
  let exact name a b =
    if not (Float.equal a b) then Alcotest.failf "%s: live %.17g, replayed %.17g" name a b
  in
  exact "accept_rate" live.Summary.accept_rate replayed.Summary.accept_rate;
  exact "utilization" live.Summary.utilization replayed.Summary.utilization;
  exact "raw_utilization" live.Summary.raw_utilization replayed.Summary.raw_utilization;
  exact "volume_accept_rate" live.Summary.volume_accept_rate replayed.Summary.volume_accept_rate;
  exact "mean_bw" live.Summary.mean_bw replayed.Summary.mean_bw;
  exact "mean_speedup" live.Summary.mean_speedup replayed.Summary.mean_speedup;
  exact "mean_start_delay" live.Summary.mean_start_delay replayed.Summary.mean_start_delay;
  exact "span" live.Summary.span replayed.Summary.span

(* Live summary vs the summary rebuilt from the binary trace alone must be
   bit-identical (the summary's float folds are order-sensitive, so this
   also pins arrival/decision ordering in the trace). *)
let replay_trace run_traced requests fabric =
  let buf = Buffer.create 4096 in
  let obs = Obs.create ~sink:(Sink.binary_buffer buf) () in
  let result = run_traced obs in
  let live = Summary.compute fabric ~all:requests ~accepted:result.Types.accepted in
  match Replay.of_string ~default:(Fun.const fabric) (Buffer.contents buf) with
  | Error msg -> Alcotest.failf "trace did not parse: %s" msg
  | Ok r ->
      Alcotest.(check bool) "timestamps monotone" true (Replay.monotone r.Replay.events);
      Alcotest.(check (list int)) "input order restored"
        (List.map (fun (q : Request.t) -> q.Request.id) requests)
        (List.map (fun (q : Request.t) -> q.Request.id) r.Replay.requests);
      check_summary_exact live (Replay.summary r)

let flexible_replay kind seed () =
  let spec = Spec.paper_flexible ~count:200 ~mean_interarrival:1.0 () in
  let requests = Gen.generate (rng ~seed ()) spec in
  let fabric = spec.Spec.fabric in
  replay_trace
    (fun obs ->
      Flexible.run ~ctx:(Gridbw_core.Runtime.make ~obs ()) kind fabric
        (Policy.Fraction_of_max 0.8) requests)
    requests fabric

let rigid_replay seed () =
  let spec = Spec.paper_rigid ~count:150 ~load:1.2 () in
  let requests = Gen.generate (rng ~seed ()) spec in
  let fabric = spec.Spec.fabric in
  replay_trace
    (fun obs ->
      Rigid.run ~ctx:(Gridbw_core.Runtime.make ~obs ()) (`Slots Rigid.Min_bw) fabric requests)
    requests fabric

(* Pin: the summary a traced GREEDY run replays to, every float as its
   bit pattern, so a change to how a trace is read shows even where the
   live run would move with it. *)
let replay_summary_pin () =
  let spec = Spec.paper_flexible ~count:200 ~mean_interarrival:1.0 () in
  let requests = Gen.generate (rng ~seed:11L ()) spec in
  let fabric = spec.Spec.fabric in
  let buf = Buffer.create 4096 in
  let obs = Obs.create ~sink:(Sink.binary_buffer buf) () in
  ignore
    (Flexible.run ~ctx:(Gridbw_core.Runtime.make ~obs ()) `Greedy fabric
       (Policy.Fraction_of_max 0.8) requests);
  match Replay.of_string ~default:(Fun.const fabric) (Buffer.contents buf) with
  | Error msg -> Alcotest.failf "trace did not parse: %s" msg
  | Ok r ->
      let s = Replay.summary r in
      let row =
        Printf.sprintf "%d %d %h %h %h %h %h %h %h %h" s.Summary.total s.Summary.accepted
          s.Summary.accept_rate s.Summary.utilization s.Summary.raw_utilization
          s.Summary.volume_accept_rate s.Summary.mean_bw s.Summary.mean_speedup
          s.Summary.mean_start_delay s.Summary.span
      in
      Alcotest.(check string) "summary digest" "824b983220c1dc0932347794d99468e4" (Digest.to_hex (Digest.string row))

(* --- percentile estimator --- *)

(* The registry's power-of-two bucketing (bucket 0 = [0,1], bucket i =
   [2^(i-1), 2^i) for i >= 1), re-derived independently of metrics.ml. *)
let sample_bucket v = if v <= 1.0 then 0 else snd (Float.frexp v)

(* Exact nearest rank ⌈q·n⌉, in integer arithmetic: q = mi·2^(e-53)
   with a 53-bit integer mantissa, so ⌈q·n⌉ = ⌈mi·n / 2^(53-e)⌉ — no
   float product, hence immune to the ulp-high rounding the
   implementation has to compensate for. *)
let exact_rank q n =
  if q <= 0. || n = 0 then 1
  else begin
    let m, e = Float.frexp q in
    let mi = int_of_float (Float.ldexp m 53) in
    let shift = 53 - e in
    (* shift >= 62 means q < 2^-8: q·n < 1 for the n <= 300 used here *)
    if shift >= 62 then 1
    else begin
      let d = 1 lsl shift in
      let a = mi * n in
      let k = (a / d) + if a mod d = 0 then 0 else 1 in
      Int.max 1 (Int.min n k)
    end
  end

let percentile_edges () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "p" in
  Alcotest.(check bool) "empty histogram -> nan" true
    (Float.is_nan (Metrics.percentile h 0.5));
  Metrics.observe h 5.0;
  Alcotest.check_raises "q > 1 raises"
    (Invalid_argument "Metrics.percentile: q must be in [0,1]")
    (fun () -> ignore (Metrics.percentile h 1.5));
  Alcotest.check_raises "q < 0 raises"
    (Invalid_argument "Metrics.percentile: q must be in [0,1]")
    (fun () -> ignore (Metrics.percentile h (-0.1)));
  (* one sample: every quantile is in its bucket [4, 8] *)
  let p = Metrics.percentile h 0.5 in
  Alcotest.(check bool) "single sample p50 in its bucket" true (4.0 <= p && p <= 8.0);
  List.iter (Metrics.observe h) [ 100.; 200.; 400. ];
  let p50 = Metrics.percentile h 0.5
  and p95 = Metrics.percentile h 0.95
  and p99 = Metrics.percentile h 0.99 in
  Alcotest.(check bool) "quantiles are monotone" true (p50 <= p95 && p95 <= p99)

(* Oracle property: against the exact sorted-sample order statistic
   (nearest rank k = ceil(q*n)), the interpolated estimate must land in
   the same power-of-two bucket — the accuracy the .mli promises. *)
let percentile_sample_gen =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 300)
         (oneof [ float_range 0. 1.5; float_range 0. 1000.; float_range 0. 1e9 ]))
      (float_range 0. 1.))

let prop_percentile_oracle =
  qcase ~count:300 "metrics: percentile lands in the exact order statistic's bucket"
    percentile_sample_gen
    (fun (samples, q) ->
      let m = Metrics.create () in
      let h = Metrics.histogram m "lat" in
      List.iter (Metrics.observe h) samples;
      let sorted = List.sort Float.compare samples in
      let n = List.length samples in
      let k = exact_rank q n in
      let exact = List.nth sorted (k - 1) in
      let est = Metrics.percentile h q in
      let i = sample_bucket exact in
      let lo = if i = 0 then 0.0 else Float.ldexp 1.0 (i - 1) in
      let hi = Float.ldexp 1.0 i in
      lo <= est && est <= hi)

(* The q·n rank bug: q·n computed in floats rounds an ulp high
   (0.95 · 20 = 19.000000000000004), so ceil overshot by a whole rank.
   These 20 samples put rank 19 and rank 20 in different power-of-two
   buckets; the estimate must land in rank 19's bucket. *)
let percentile_rank () =
  let mk samples =
    let m = Metrics.create () in
    let h = Metrics.histogram m "serve_stage_admit_search_ns" in
    List.iter (Metrics.observe h) samples;
    h
  in
  let h = mk (List.init 18 (fun _ -> 100.) @ [ 300.; 600. ]) in
  Alcotest.(check int) "20 samples" 20 (Metrics.hist_count h);
  (* exact rank of p95 over n=20 is 19 -> the 300 sample, bucket (256,512] *)
  let p95 = Metrics.percentile h 0.95 in
  Alcotest.(check bool)
    (Printf.sprintf "p95 lands in rank 19's bucket (got %g)" p95)
    true
    (256. <= p95 && p95 <= 512.);
  (* same shape again: q=0.3, n=10 has exact rank 3 *)
  let h = mk [ 3.; 5.; 12.; 24.; 48.; 96.; 192.; 384.; 768.; 1536. ] in
  let p30 = Metrics.percentile h 0.3 in
  Alcotest.(check bool)
    (Printf.sprintf "p30 lands in rank 3's bucket (got %g)" p30)
    true
    (8. <= p30 && p30 <= 16.)

(* --- json string escaping --- *)

module Json = Gridbw_obs.Json

(* Arbitrary byte strings, control characters and high bytes included:
   the escaper must keep every one of the 256 byte values reversible. *)
let byte_string_gen =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 30))

let json_str_round_trip =
  qcase ~count:500 "json: arbitrary byte strings round-trip through Str" byte_string_gen
    (fun s -> Json.parse (Json.to_string (Json.Str s)) = Ok (Json.Str s))

let json_obj_key_round_trip =
  qcase ~count:500 "json: arbitrary byte strings round-trip as Obj keys" byte_string_gen
    (fun s ->
      let doc = Json.Obj [ (s, Json.Num 1.0) ] in
      Json.parse (Json.to_string doc) = Ok doc)

let json_escapes_are_ascii () =
  (* Control characters come out as standard escapes, never raw. *)
  let out = Json.to_string (Json.Str "a\"b\\c\nd\te\rf\x00g\x1fh") in
  Alcotest.(check string) "escaped rendering"
    {|"a\"b\\c\nd\te\rf\u0000g\u001fh"|} out;
  String.iter
    (fun c -> if Char.code c < 0x20 then Alcotest.failf "raw control byte %#x in output" (Char.code c))
    out

let json_standard_escapes_parse () =
  (* Escapes the printer never emits must still parse (foreign traces). *)
  List.iter
    (fun (input, expected) ->
      match Json.parse input with
      | Ok (Json.Str s) -> Alcotest.(check string) input expected s
      | Ok _ -> Alcotest.failf "%s: parsed to a non-string" input
      | Error msg -> Alcotest.failf "%s: %s" input msg)
    [
      ({|"\/"|}, "/");
      ({|"\b\f"|}, "\b\x0c");
      ({|"A"|}, "A");
      ({|"é"|}, "\xc3\xa9") (* é as UTF-8 *);
    ]

(* --- json numbers and error messages: the codec's output is pinned --- *)

(* The rule the codec has always printed numbers by. *)
let printf_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.17g" f

let check_number f =
  if Float.is_finite f then
    Alcotest.(check string) (Printf.sprintf "%h" f) (printf_number f) (Json.to_string (Json.Num f))

let json_numbers_print_as_printf () =
  List.iter check_number
    [ 0.; -0.; 1.; -1.; 1e15 -. 1.; -.(1e15 -. 1.); 1e15; -1e15; 5e-324; -5e-324; max_float;
      -.max_float; min_float; 0.5; -0.5; 0.1; 1e300; 0x1p53; 0x1p53 +. 2.; -0x1p62; 0x1p63;
      1e-6; 1.5e-5; -2.5e-6; 0.00012; 99999999999999984.; 99999999999999.995 ];
  (* each power of ten from 1e-8 to 1e18 and its neighbours: the edges of
     the decimal exponent, and of the range printed without printf *)
  for k = -8 to 18 do
    let x = ref (float_of_string ("1e" ^ string_of_int k)) in
    for _ = 1 to 4 do
      x := Float.pred !x
    done;
    for _ = 1 to 9 do
      check_number !x;
      check_number (-. !x);
      x := Float.succ !x
    done
  done

(* c / 2^(k+1) with c odd is a double whose 17-digit rounding is an exact
   tie: its decimal expansion ends in a 5 in the 18th digit. *)
let tie_gen =
  QCheck2.Gen.(
    let* k = int_range 1 22 in
    let p5 = Float.pow 5. (float_of_int k) in
    let lo = Float.ceil (2e16 /. p5) and hi = Float.min (Float.floor (2e17 /. p5)) 0x1p53 in
    let* c = float_range lo (hi -. 2.) in
    let c = Float.round c in
    let c = if Float.rem c 2. = 0. then c +. 1. else c in
    return (Float.ldexp c (-(k + 1))))

(* Random bit patterns cover every exponent; the integral draws cover
   the [string_of_int] branch; log-uniform draws and exact ties cover
   the digits computed without printf. *)
let prop_json_numbers =
  qcase ~count:2000 "json: numbers print as %.0f / %.17g did"
    QCheck2.Gen.(
      quad int64 (float_range (-1e15) 1e15)
        (pair (float_range 1. 2.) (int_range (-22) 58))
        tie_gen)
    (fun (bits, x, (m, e), tie) ->
      List.iter check_number
        [ Int64.float_of_bits bits; Float.round x; x; Float.ldexp m e; -.Float.ldexp m e; tie ];
      true)

let check_literal lit =
  match Json.parse lit with
  | Ok (Json.Num f) ->
      Alcotest.(check int64) lit (Int64.bits_of_float (float_of_string lit)) (Int64.bits_of_float f)
  | Ok _ -> Alcotest.failf "%s: parsed to a non-number" lit
  | Error msg -> Alcotest.failf "%s: %s" lit msg

let json_integer_literals_exact () =
  List.iter check_literal
    [ "0"; "-0"; "007"; "-007"; "000000000000000"; "999999999999999"; "-999999999999999";
      "1000000000000000"; "9007199254740993"; "-9007199254740993"; "12345678901234567890" ]

let prop_json_integer_literals =
  qcase ~count:2000 "json: integer literals parse as float_of_string does"
    QCheck2.Gen.(pair bool (string_size ~gen:(char_range '0' '9') (int_range 1 17)))
    (fun (neg, digits) ->
      check_literal (if neg then "-" ^ digits else digits);
      true)

(* Parse errors reach serve clients verbatim inside bad-json replies. *)
let json_error_messages_stable () =
  List.iter
    (fun (input, expected) ->
      match Json.parse input with
      | Ok _ -> Alcotest.failf "%S: parsed" input
      | Error msg -> Alcotest.(check string) (Printf.sprintf "%S" input) expected msg)
    [
      ("", "unexpected end of input at 0");
      ("   ", "unexpected end of input at 3");
      ("{", {|expected '"' at 1|});
      ("}", "expected number at 0");
      ("[1,", "unexpected end of input at 3");
      ("[1 2]", "expected ',' or ']' at 3");
      ({|{"a" 1}|}, "expected ':' at 5");
      ({|{"a":1,}|}, {|expected '"' at 7|});
      ({|{"a":1 "b":2}|}, "expected ',' or '}' at 7");
      ({|"abc|}, "unterminated string at 4");
      ({|"a\|}, "bad escape at 3");
      ({|"a\x"|}, "bad escape at 3");
      ({|"\u12"|}, {|bad \u escape at 3|});
      ({|"\uzzzz"|}, "int_of_string");
      ("tru", "expected true at 0");
      ("nulL", "expected null at 0");
      ("trueX", "trailing garbage at 4");
      ("-", "malformed number at 1");
      ("1e", "malformed number at 2");
      ("1.2.3", "malformed number at 5");
      ("--1", "malformed number at 3");
      ("0x10", "trailing garbage at 1");
      ("e5", "malformed number at 2");
      ("[1e5e5]", "malformed number at 6");
      ("123abc", "trailing garbage at 3");
      ("inf", "expected number at 0");
      ("nan", "expected null at 0");
      ({|{"v":}|}, "expected number at 5");
      ("[1,]", "expected number at 3");
      ("\000", "expected number at 0");
      ("[1\000", "expected ',' or ']' at 2");
      ({|"\u0041"x|}, "trailing garbage at 8");
    ]

(* Journals and traces written before ids were bounded may hold integral
   values past 2^53; [to_int] must keep reading them back (the protocol
   bounds ids on its own). *)
let json_large_ints_read_back () =
  let int_of lit = Option.bind (Result.to_option (Json.parse lit)) Json.to_int in
  List.iter
    (fun (lit, want) -> Alcotest.(check (option int)) lit (Some want) (int_of lit))
    [
      ("9007199254740991", 9007199254740991);
      ("9007199254740992", 9007199254740992);
      ("-9007199254740994", -9007199254740994);
      ("1e16", 10_000_000_000_000_000);
    ];
  Alcotest.(check (option int)) "1.5" None (int_of "1.5")

(* --- the number reader against float_of_string --- *)

(* [Json.parse] of a number literal, modelled on the reader that took
   the longest run of number characters to [float_of_string]: that
   reader's doubles, messages and offsets are the protocol's. *)
let reference_parse lit =
  let is_num = function '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true | _ -> false in
  let n = String.length lit in
  let run = ref 0 in
  while !run < n && is_num lit.[!run] do
    incr run
  done;
  if n = 0 then Error "unexpected end of input at 0"
  else if !run = 0 then Error "expected number at 0"
  else
    match float_of_string_opt (String.sub lit 0 !run) with
    | None -> Error (Printf.sprintf "malformed number at %d" !run)
    | Some f -> if !run < n then Error (Printf.sprintf "trailing garbage at %d" !run) else Ok f

let same_as_reference lit =
  match (Json.parse lit, reference_parse lit) with
  | Ok (Json.Num f), Ok g ->
      if not (Int64.equal (Int64.bits_of_float f) (Int64.bits_of_float g)) then
        Alcotest.failf "%s: read %h, float_of_string %h" lit f g
  | Error m, Error m' -> Alcotest.(check string) lit m' m
  | Ok _, Error m -> Alcotest.failf "%s: parsed, expected %s" lit m
  | Error m, Ok g -> Alcotest.failf "%s: %s, expected %h" lit m g
  | Ok _, Ok _ -> Alcotest.failf "%s: parsed to a non-number" lit

let json_number_edges () =
  List.iter same_as_reference
    [ "0"; "-0"; "0e5"; "-0e5"; "0.0"; "-0.000e-99999999999"; "00012.50"; "-0007"; "000.5";
      "1e400"; "-1e400"; "1e-400"; "-1e-400"; "4.9e-324"; "2.4703282292062328e-324";
      "1.7976931348623157e308"; "1.7976931348623159e308"; "9007199254740993";
      "9007199254740993.0"; "90071992547409930e-1"; "4503599627370496.5"; "4503599627370497.5";
      "2251799813685248.25"; "2251799813685248.75"; "0.1"; "0.30000000000000004";
      "123456789012345678"; "1234567890123456789"; "12345678901234567.8e-5"; "1e22"; "1e23";
      "1e-22"; "1e-23"; "5."; ".5"; "-.5"; "+1"; "+.5e1"; "1E+2"; "1e+"; "1e-"; "."; "-"; "+";
      "e"; "1..2"; "1.2e3.4"; "1e5e5"; "1-2"; "0x10"; "12a"; "";
      "3976.9331205423796"; "6039.5359458385774"; "537.80683302365048" ]

(* %.17g prints of any double (random bit patterns: subnormals, huge
   values and every exponent), and %.15g to %.18g prints of the
   magnitudes a request carries. *)
let prop_json_printed_doubles =
  qcase ~count:3000 "json: printed doubles read back as float_of_string reads them"
    QCheck2.Gen.(pair int64 (pair (float_range 0. 1.) (int_range (-8) 12)))
    (fun (bits, (m, e)) ->
      let f = Int64.float_of_bits bits in
      if Float.is_finite f then same_as_reference (Printf.sprintf "%.17g" f);
      let x = m *. Float.pow 10. (float_of_int e) in
      List.iter
        (fun p -> same_as_reference (Printf.sprintf "%.*g" p x))
        [ 15; 16; 17; 18 ];
      true)

(* Random significands of 1 to 25 digits, leading zeros included, with a
   random point and a random exponent, near and far. *)
let literal_gen =
  QCheck2.Gen.(
    let* neg = bool in
    let* digits = string_size ~gen:(char_range '0' '9') (int_range 1 25) in
    let* point = int_range 0 (String.length digits + 3) in
    let* exp =
      oneof
        [ return None; map Option.some (int_range (-25) 25); map Option.some (int_range (-400) 400) ]
    in
    let* e = oneofl [ "e"; "E"; "e+" ] in
    let mantissa =
      if point > String.length digits then digits
      else String.sub digits 0 point ^ "." ^ String.sub digits point (String.length digits - point)
    in
    let exp =
      match exp with
      | None -> ""
      | Some x when x >= 0 -> e ^ string_of_int x
      | Some x -> "e" ^ string_of_int x
    in
    return ((if neg then "-" else "") ^ mantissa ^ exp))

let prop_json_literals =
  qcase ~count:5000 "json: decimal literals read as float_of_string reads them" literal_gen
    (fun lit ->
      same_as_reference lit;
      true)

(* Exact halfway points between adjacent doubles that fit 18 digits: odd
   multiples of half an ulp in [2^51, 2^53) (".25", ".5", ".75") and in
   [2^53, 2^57) (odd integers and x + 2, x + 4, x + 8).  Ties go to even. *)
let prop_json_halfway =
  qcase ~count:2000 "json: halfway literals round to even as float_of_string does"
    QCheck2.Gen.(pair (int_range 51 56) (int_range 0 ((1 lsl 52) - 1)))
    (fun (e, r) ->
      let x = Float.ldexp (1. +. Float.ldexp (float_of_int r) (-52)) e in
      let half_ulp = (Float.succ x -. x) /. 2. in
      let lit =
        if half_ulp >= 1. then string_of_int (Float.to_int x + Float.to_int half_ulp)
        else
          let q = Float.to_int x and f = x -. Float.trunc x +. half_ulp in
          Printf.sprintf "%d.%s" q (String.sub (Printf.sprintf "%.2f" f) 2 2)
      in
      same_as_reference lit;
      same_as_reference ("-" ^ lit);
      true)

(* Strings over the number characters: every malformed spelling must get
   the message and offset of the reader it replaces. *)
let prop_json_number_noise =
  qcase ~count:5000 "json: malformed numbers keep their messages and offsets"
    QCheck2.Gen.(
      string_size ~gen:(oneofl [ '0'; '1'; '9'; '.'; 'e'; 'E'; '+'; '-'; 'x' ]) (int_range 1 10))
    (fun lit ->
      same_as_reference lit;
      true)

(* --- span codecs --- *)

module Span = Gridbw_obs.Span
module Trace_report = Gridbw_metrics.Trace_report

let sample_span ?(id = 7) ?(req = Some 41) () =
  Span.make ~id ~conn:3 ~req ~time:1722.5 ~total_ns:261_000. ~probes:2
    ~durs:[| 120.; 850.; 3200.; 410.; 250_000.; 75. |]

let span_eq a b =
  Span.id a = Span.id b
  && Span.conn a = Span.conn b
  && Span.req a = Span.req b
  && Float.equal (Span.time a) (Span.time b)
  && Float.equal (Span.total_ns a) (Span.total_ns b)
  && Span.probes a = Span.probes b
  && List.for_all
       (fun st -> Float.equal (Span.duration a st) (Span.duration b st))
       Span.all_stages

let span_codec_round_trip () =
  List.iter
    (fun sp ->
      match Codec.of_string (module Span.Binary) (Codec.to_string (module Span.Binary) sp) with
      | Ok sp' -> Alcotest.(check bool) "binary round-trips" true (span_eq sp sp')
      | Error msg -> Alcotest.fail ("binary: " ^ msg))
    [ sample_span (); sample_span ~id:9 ~req:None () ]

let span_frame sp = Codec.to_string (module Span.Binary) sp

let replay_skips_span_frames () =
  let trace =
    String.concat "" [ event_frame (mark 0); span_frame (sample_span ()); event_frame (mark 1) ]
  in
  match Replay.decode trace with
  | Error msg -> Alcotest.failf "mixed trace did not decode: %s" msg
  | Ok events -> Alcotest.(check int) "spans skipped, events kept" 2 (List.length events)

(* A flipped byte fails the frame CRC; a cut frame is truncated.
   Either way the error names the record, counting from 1. *)
let replay_reports_bad_record () =
  let second = event_frame (mark 1) in
  let flipped = Bytes.of_string second in
  let i = Bytes.length flipped - 1 in
  Bytes.set flipped i (Char.chr (Char.code (Bytes.get flipped i) lxor 0x01));
  List.iter
    (fun (label, bad) ->
      match Replay.of_string (event_frame (mark 0) ^ bad) with
      | Error msg ->
          Alcotest.(check bool) (label ^ " names record 2") true (contains ~affix:"record 2" msg)
      | Ok _ -> Alcotest.failf "%s: expected a decode error" label)
    [
      ("corrupt", Bytes.to_string flipped);
      ("cut", String.sub second 0 (String.length second - 3));
    ]

(* trace-report keeps the span frames of a mixed trace in file order and
   counts every other frame as skipped; a trace cut mid-frame is an
   error, not a shorter report. *)
let trace_report_of_mixed_trace () =
  let trace =
    String.concat ""
      [
        span_frame (sample_span ~id:1 ());
        event_frame (mark 0);
        event_frame (mark 1);
        span_frame (sample_span ~id:2 ~req:None ());
        event_frame (mark 2);
      ]
  in
  (match Trace_report.of_string trace with
  | Error msg -> Alcotest.failf "mixed trace did not decode: %s" msg
  | Ok t ->
      Alcotest.(check (list int)) "spans in file order" [ 1; 2 ]
        (List.map Span.id (Trace_report.spans t));
      Alcotest.(check bool) "span fields survive" true
        (span_eq (sample_span ~id:2 ~req:None ()) (List.nth (Trace_report.spans t) 1));
      Alcotest.(check int) "events skipped" 3 (Trace_report.skipped t));
  match Trace_report.of_string (String.sub trace 0 (String.length trace - 5)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "a trace cut mid-frame must not decode"

let suites =
  [
    ( "obs.metrics",
      [
        case "counters and gauges" counters_and_gauges;
        case "histogram log2 buckets" histogram_buckets;
        prop_bucket_is_frexp;
        case "histogram bucket boundaries" bucket_boundaries;
        case "observe allocates nothing" observe_allocates_nothing;
        case "kind mismatch raises" kind_mismatch_raises;
        case "prometheus dump" prometheus_dump;
        case "percentile edges and monotonicity" percentile_edges;
        prop_percentile_oracle;
        case "percentile rank (q*n)" percentile_rank;
      ] );
    ( "obs.sink",
      [
        case "tee duplicates" tee_duplicates;
      ] );
    ( "obs.span",
      [
        case "binary codec round-trips" span_codec_round_trip;
        case "replay skips span frames in mixed traces" replay_skips_span_frames;
        case "trace-report keeps spans, skips events" trace_report_of_mixed_trace;
      ] );
    ( "obs.event",
      [ case "every variant round-trips" event_round_trip; float_fields_round_trip ] );
    ( "obs.json",
      [
        json_str_round_trip;
        json_obj_key_round_trip;
        case "control characters render as escapes" json_escapes_are_ascii;
        case "foreign escape forms parse" json_standard_escapes_parse;
        case "numbers print as %.0f / %.17g did" json_numbers_print_as_printf;
        prop_json_numbers;
        case "integer literals parse bit for bit" json_integer_literals_exact;
        prop_json_integer_literals;
        case "parse error messages are stable" json_error_messages_stable;
        case "integers beyond 2^53 still read back" json_large_ints_read_back;
        case "number reader: edge literals" json_number_edges;
        prop_json_printed_doubles;
        prop_json_literals;
        prop_json_halfway;
        prop_json_number_noise;
      ] );
    ( "obs.ctx",
      [
        case "disabled ctx is inert" disabled_is_inert;
        case "span records and returns" span_records_and_returns;
        case "span clock resolves below a microsecond" span_clock_resolves_nanoseconds;
        case "metric keys resolve lazily, once per registry" keys_resolve_lazily_per_registry;
        case "tracing does not change decisions" tracing_does_not_change_decisions;
      ] );
    ( "obs.replay",
      [
        case "greedy trace replays bit-identically (seed 11)" (flexible_replay `Greedy 11L);
        case "greedy trace replays bit-identically (seed 23)" (flexible_replay `Greedy 23L);
        case "window trace replays bit-identically (seed 11)" (flexible_replay (`Window 400.) 11L);
        case "window trace replays bit-identically (seed 23)" (flexible_replay (`Window 400.) 23L);
        case "slots trace replays bit-identically" (rigid_replay 5L);
        case "pin: a traced greedy run's replayed summary" replay_summary_pin;
        case "decode errors name the record" replay_reports_bad_record;
      ] );
  ]
