open Helpers
module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event
module Sink = Gridbw_obs.Sink
module Metrics = Gridbw_obs.Metrics
module Replay = Gridbw_metrics.Replay
module Summary = Gridbw_metrics.Summary
module Flexible = Gridbw_core.Flexible
module Rigid = Gridbw_core.Rigid
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

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

let ring_eviction () =
  let r = Sink.ring ~capacity:3 in
  let s = Sink.ring_sink r in
  List.iter (fun i -> s.Sink.emit (mark i)) [ 0; 1; 2; 3; 4 ];
  Alcotest.(check int) "dropped" 2 (Sink.ring_dropped r);
  Alcotest.(check (list int)) "keeps most recent, oldest first" [ 2; 3; 4 ]
    (List.map (function Event.Dispatch d -> d.pending | _ -> -1) (Sink.ring_events r))

(* Property: after any number of emits, the ring holds exactly the
   newest [capacity] events in emit order, and [ring_dropped] counts
   every eviction — including across multiple full wraps. *)
let ring_wrap_gen = QCheck2.Gen.(pair (int_range 1 12) (int_range 0 100))

let prop_ring_wrap =
  qcase ~count:300 "sink: ring wrap keeps newest capacity events, counts drops"
    ring_wrap_gen
    (fun (capacity, n) ->
      let r = Sink.ring ~capacity in
      let s = Sink.ring_sink r in
      for i = 0 to n - 1 do
        s.Sink.emit (mark i)
      done;
      let kept =
        List.map (function Event.Dispatch d -> d.pending | _ -> -1) (Sink.ring_events r)
      in
      let k = Int.min capacity n in
      kept = List.init k (fun j -> n - k + j)
      && Sink.ring_dropped r = Int.max 0 (n - capacity))

let tee_duplicates () =
  let a = Sink.ring ~capacity:8 and b = Sink.ring ~capacity:8 in
  let t = Sink.tee (Sink.ring_sink a) (Sink.ring_sink b) in
  t.Sink.emit (mark 1);
  Alcotest.(check int) "left got it" 1 (List.length (Sink.ring_events a));
  Alcotest.(check int) "right got it" 1 (List.length (Sink.ring_events b))

(* --- event JSONL round-trip --- *)

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
    Event.Shed { time = 5.0; side = Event.Egress; port = 2; excess = 7.5; victims = 3 };
    Event.Capacity { time = 6.0; side = Event.Ingress; port = 0; capacity = 50.0 };
    Event.Dispatch { time = 7.0; pending = 4 };
  ]

let event_round_trip () =
  List.iter
    (fun e ->
      match Event.of_line (Event.to_json e) with
      | Ok e' ->
          Alcotest.(check bool) ("round-trip " ^ Event.kind e) true (e = e')
      | Error msg -> Alcotest.failf "%s failed to parse back: %s" (Event.kind e) msg)
    sample_events

let finite f = if Float.is_finite f then f else 1.5

let float_fields_round_trip =
  qcase ~count:200 "arbitrary float fields survive the JSONL round-trip"
    QCheck2.Gen.(triple float float float)
    (fun (a, b, c) ->
      let volume = Float.abs (finite a) +. 1e-9 and ts = finite b and bw = Float.abs (finite c) +. 1e-9 in
      let e =
        Event.Accept
          { time = ts; id = 0; ingress = 0; egress = 0; volume; ts; tf = ts +. 1.0;
            max_rate = bw; bw; sigma = ts; shard = None }
      in
      Event.of_line (Event.to_json e) = Ok e)

(* --- ctx behaviour --- *)

let disabled_is_inert () =
  Obs.count Obs.disabled "inert_counter";
  Obs.observe Obs.disabled "inert_hist" 1.0;
  Obs.event Obs.disabled (fun () -> Alcotest.fail "thunk must not run");
  let dump = Metrics.to_prometheus (Obs.metrics Obs.disabled) in
  Alcotest.(check bool) "registry untouched" false (contains ~affix:"inert" dump)

let span_records_and_returns () =
  let obs = Obs.create () in
  Alcotest.(check int) "span returns f's value" 42 (Obs.span obs "unit_test" (fun () -> 42));
  let h = Metrics.histogram (Obs.metrics obs) "span_unit_test_ns" in
  Alcotest.(check int) "one observation" 1 (Metrics.hist_count h);
  (match Obs.span obs "unit_test" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "exception must propagate"
  | exception Failure _ -> ());
  Alcotest.(check int) "failed span still observed" 2 (Metrics.hist_count h)

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
  let obs = Obs.create ~sink:(Sink.jsonl_buffer buf) () in
  let traced =
    Flexible.run ~ctx:(Gridbw_core.Runtime.make ~obs ()) `Greedy f
      (Policy.Fraction_of_max 0.8) reqs
  in
  Alcotest.(check bool) "identical accept stream" true
    (decision_signature plain = decision_signature traced);
  Alcotest.(check int) "identical reject count" (List.length plain.Types.rejected)
    (List.length traced.Types.rejected)

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

(* Live summary vs the summary rebuilt from the JSONL trace alone must be
   bit-identical (the summary's float folds are order-sensitive, so this
   also pins arrival/decision ordering in the trace). *)
let replay_trace run_traced requests fabric =
  let buf = Buffer.create 4096 in
  let obs = Obs.create ~sink:(Sink.jsonl_buffer buf) () in
  let result = run_traced obs in
  let live = Summary.compute fabric ~all:requests ~accepted:result.Types.accepted in
  match Replay.of_lines (String.split_on_char '\n' (Buffer.contents buf)) with
  | Error msg -> Alcotest.failf "trace did not parse: %s" msg
  | Ok r ->
      Alcotest.(check bool) "timestamps monotone" true (Replay.monotone r.Replay.events);
      Alcotest.(check (list int)) "input order restored"
        (List.map (fun (q : Request.t) -> q.Request.id) requests)
        (List.map (fun (q : Request.t) -> q.Request.id) r.Replay.requests);
      check_summary_exact live (Replay.summary fabric r)

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
      -.max_float; min_float; 0.5; -0.5; 0.1; 1e300; 0x1p53; 0x1p53 +. 2.; -0x1p62; 0x1p63 ]

(* Random bit patterns cover every exponent; the integral draws cover
   the [string_of_int] branch. *)
let prop_json_numbers =
  qcase ~count:2000 "json: numbers print as %.0f / %.17g did"
    QCheck2.Gen.(pair int64 (float_range (-1e15) 1e15))
    (fun (bits, x) ->
      List.iter check_number [ Int64.float_of_bits bits; Float.round x; x ];
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

(* --- span codecs --- *)

module Span = Gridbw_obs.Span

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
      (match Gridbw_wire.Codec.of_string (module Span.Binary) (Gridbw_wire.Codec.to_string (module Span.Binary) sp) with
      | Ok sp' -> Alcotest.(check bool) "binary round-trips" true (span_eq sp sp')
      | Error msg -> Alcotest.fail ("binary: " ^ msg));
      match Gridbw_wire.Codec.of_string (module Span.Jsonl) (Gridbw_wire.Codec.to_string (module Span.Jsonl) sp) with
      | Ok sp' -> Alcotest.(check bool) "jsonl round-trips" true (span_eq sp sp')
      | Error msg -> Alcotest.fail ("jsonl: " ^ msg))
    [ sample_span (); sample_span ~id:9 ~req:None () ]

let span_sniff_autodetects () =
  let sp = sample_span () in
  List.iter
    (fun (label, encoded) ->
      match Span.sniff_decode encoded ~pos:0 with
      | Gridbw_wire.Codec.Value (sp', n) ->
          Alcotest.(check int) (label ^ " consumed") (String.length encoded) n;
          Alcotest.(check bool) (label ^ " fields") true (span_eq sp sp')
      | _ -> Alcotest.fail (label ^ ": sniff_decode failed"))
    [
      ("binary", Gridbw_wire.Codec.to_string (module Span.Binary) sp);
      ("jsonl", Gridbw_wire.Codec.to_string (module Span.Jsonl) sp);
    ];
  Alcotest.(check bool) "json line is recognized" true
    (Span.looks_like_json_span (Span.to_json sp));
  Alcotest.(check bool) "event line is not" false
    (Span.looks_like_json_span (Event.to_json (mark 1)))

let replay_skips_span_lines () =
  let sp = sample_span () in
  let lines = [ Event.to_json (mark 0); Span.to_json sp; Event.to_json (mark 1) ] in
  match Replay.of_lines lines with
  | Error msg -> Alcotest.failf "mixed trace did not parse: %s" msg
  | Ok r -> Alcotest.(check int) "spans skipped, events kept" 2 (List.length r.Replay.events)

let replay_reports_bad_line () =
  match Replay.of_lines [ Event.to_json (mark 0); "{not json" ] with
  | Error msg -> Alcotest.(check bool) "names line 2" true (contains ~affix:"line 2" msg)
  | Ok _ -> Alcotest.fail "expected a parse error"

let suites =
  [
    ( "obs.metrics",
      [
        case "counters and gauges" counters_and_gauges;
        case "histogram log2 buckets" histogram_buckets;
        case "kind mismatch raises" kind_mismatch_raises;
        case "prometheus dump" prometheus_dump;
        case "percentile edges and monotonicity" percentile_edges;
        prop_percentile_oracle;
        case "percentile rank (q*n)" percentile_rank;
      ] );
    ( "obs.sink",
      [
        case "ring keeps most recent" ring_eviction;
        prop_ring_wrap;
        case "tee duplicates" tee_duplicates;
      ] );
    ( "obs.span",
      [
        case "binary and jsonl codecs round-trip" span_codec_round_trip;
        case "sniff_decode autodetects either form" span_sniff_autodetects;
        case "replay skips span lines in mixed traces" replay_skips_span_lines;
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
      ] );
    ( "obs.ctx",
      [
        case "disabled ctx is inert" disabled_is_inert;
        case "span records and returns" span_records_and_returns;
        case "tracing does not change decisions" tracing_does_not_change_decisions;
      ] );
    ( "obs.replay",
      [
        case "greedy trace replays bit-identically (seed 11)" (flexible_replay `Greedy 11L);
        case "greedy trace replays bit-identically (seed 23)" (flexible_replay `Greedy 23L);
        case "window trace replays bit-identically (seed 11)" (flexible_replay (`Window 400.) 11L);
        case "window trace replays bit-identically (seed 23)" (flexible_replay (`Window 400.) 23L);
        case "slots trace replays bit-identically" (rigid_replay 5L);
        case "parse errors name the line" replay_reports_bad_line;
      ] );
  ]
