(* Bit pins of the paper's kernels.

   The decision streams of GREEDY (Algorithm 2), the daemon's kernel
   ([Online.try_admit] in arrival order), WINDOW(400) (Algorithm 3) and
   its deferred variant on the section 5.3 flexible workload, MALLEABLE's step profiles and
   reshape revisions, the section 4 rigid baselines (FCFS, the
   head-of-line-blocking FIFO and Algorithm 1's three slot costs), and the
   answers of the breakpoint tree behind them on arbitrary floats, are
   folded into digests of their IEEE bits.  The differential timeline
   tests compare arbitrary floats only within a tolerance, so a change to
   the order in which a prefix sum adds its terms passes them; it moves
   these digests.  A constant-factor change to a kernel must leave both
   unchanged. *)

open Helpers
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Timeline = Gridbw_alloc.Timeline
module Ledger = Gridbw_alloc.Ledger
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen
module Rng = Gridbw_prng.Rng
module Policy = Gridbw_core.Policy
module Flexible = Gridbw_core.Flexible
module Online = Gridbw_core.Online
module Types = Gridbw_core.Types
module Rigid = Gridbw_core.Rigid
module Runtime = Gridbw_core.Runtime
module Malleable = Gridbw_malleable.Malleable
module Rate_profile = Gridbw_alloc.Rate_profile
module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event

let bits b x = Printf.bprintf b " %Lx" (Int64.bits_of_float x)

let pin_decision b id (d : Types.decision) =
  Printf.bprintf b "%d" id;
  (match d with
  | Types.Accepted a ->
      bits b a.Allocation.bw;
      bits b a.Allocation.sigma;
      bits b a.Allocation.tau
  | Types.Rejected reason -> Printf.bprintf b " %s" (Types.reason_name reason));
  Buffer.add_char b '\n'

(* [accepted] and [rejected] are each in decision order. *)
let pin_result b (res : Types.result) =
  List.iter (fun (a : Allocation.t) -> pin_decision b a.Allocation.request.Request.id (Types.Accepted a)) res.Types.accepted;
  Buffer.add_string b "--\n";
  List.iter (fun ((r : Request.t), reason) -> pin_decision b r.Request.id (Types.Rejected reason)) res.Types.rejected

let digest b = Digest.to_hex (Digest.string (Buffer.contents b))

let kernel_digests seed =
  let fabric = Fabric.paper_default () in
  let policy = Policy.Fraction_of_max 0.8 in
  let reqs =
    Gen.generate
      (Rng.create ~seed ())
      (Spec.paper_flexible ~count:20_000 ~mean_interarrival:14.0 ())
  in
  let greedy = Buffer.create (1 lsl 20) in
  pin_result greedy (Flexible.greedy fabric policy reqs);
  let online = Buffer.create (1 lsl 20) in
  let ctl = Online.create fabric in
  List.iter
    (fun (r : Request.t) ->
      pin_decision online r.Request.id
        (Online.try_admit ctl policy r ~at:(Float.max (Online.now ctl) r.Request.ts)))
    (Flexible.arrival_order reqs);
  let window = Buffer.create (1 lsl 20) in
  pin_result window (Flexible.window fabric policy ~step:400. reqs);
  (digest greedy, digest online, digest window)

(* WINDOW at a short and a long interval on the same stream: batches of a
   few candidates at step 50 and of hundreds at step 5000, so the
   packer's per-batch state is sized to both extremes within one run. *)
let window_steps_pinned seed (w50, w5000) () =
  let fabric = Fabric.paper_default () in
  let policy = Policy.Fraction_of_max 0.8 in
  let reqs =
    Gen.generate (Rng.create ~seed ()) (Spec.paper_flexible ~count:20_000 ~mean_interarrival:14.0 ())
  in
  let pin step =
    let b = Buffer.create (1 lsl 20) in
    pin_result b (Flexible.window fabric policy ~step reqs);
    digest b
  in
  Alcotest.(check string) "window(50) digest" w50 (pin 50.);
  Alcotest.(check string) "window(5000) digest" w5000 (pin 5000.)

(* WINDOW-DEFERRED (ablation A1) on the same stream at f = 0.8, step 400,
   and under MinRate on a twenty-times denser stream (interarrival 1) at
   steps 100 and 1000, where batches reach hundreds of candidates. *)
let deferred_digests seed =
  let fabric = Fabric.paper_default () in
  let stream mean_interarrival =
    Gen.generate (Rng.create ~seed ()) (Spec.paper_flexible ~count:20_000 ~mean_interarrival ())
  in
  let pin policy ~step reqs =
    let b = Buffer.create (1 lsl 20) in
    pin_result b (Flexible.window_deferred fabric policy ~step reqs);
    digest b
  in
  let dense = stream 1.0 in
  ( pin (Policy.Fraction_of_max 0.8) ~step:400. (stream 14.0),
    pin Policy.Min_rate ~step:100. dense,
    pin Policy.Min_rate ~step:1000. dense )

let deferred_pinned seed (f08, min100, min1000) () =
  let a, b, c = deferred_digests seed in
  Alcotest.(check string) "f=0.8, step 400 digest" f08 a;
  Alcotest.(check string) "minrate, interarrival 1, step 100 digest" min100 b;
  Alcotest.(check string) "minrate, interarrival 1, step 1000 digest" min1000 c

let kernels_pinned seed (greedy, online, window) () =
  let g, o, w = kernel_digests seed in
  Alcotest.(check string) "greedy digest" greedy g;
  Alcotest.(check string) "online digest" online o;
  Alcotest.(check string) "window(400) digest" window w

(* A seeded add/remove sequence with arbitrary float bounds and rates on
   one timeline.  About a third of the operations release an earlier
   reservation exactly, and some start on a live breakpoint, so deltas
   merge and cancel.  After every operation the tree answers a point
   query and a range query; every answer's bits go into the digest. *)
let timeline_digest () =
  let rng = Rng.create ~seed:2006L () in
  let tl = Timeline.create () in
  let steps = 4_000 in
  (* the live reservations, swap-removed *)
  let held = Array.make steps (0., 0., 0.) and n_held = ref 0 in
  let b = Buffer.create (1 lsl 18) in
  let time () = Rng.float_in rng 0. 1000. in
  for _ = 1 to steps do
    (if !n_held > 0 && Rng.int rng 3 = 0 then begin
       let k = Rng.int rng !n_held in
       let from_, until, bw = held.(k) in
       Timeline.remove tl ~from_ ~until bw;
       decr n_held;
       held.(k) <- held.(!n_held)
     end
     else begin
       let from_ =
         if !n_held > 0 && Rng.int rng 4 = 0 then
           let f, u, _ = held.(Rng.int rng !n_held) in
           if Rng.bool rng then f else u
         else time ()
       in
       let until = from_ +. Rng.float_in rng 0.001 100. in
       let bw = Rng.float_in rng 0.001 100. in
       Timeline.add tl ~from_ ~until bw;
       held.(!n_held) <- (from_, until, bw);
       incr n_held
     end);
    bits b (Timeline.usage_at tl (time ()));
    if !n_held > 0 then begin
      let f, _, _ = held.(Rng.int rng !n_held) in
      bits b (Timeline.usage_at tl f)
    end;
    let from_ = time () in
    let until = from_ +. Rng.float_in rng 0.001 200. in
    bits b (Timeline.max_over tl ~from_ ~until);
    let at, level = Timeline.argmax_over tl ~from_ ~until in
    bits b at;
    bits b level;
    Buffer.add_char b '\n'
  done;
  digest b

let timeline_pinned () =
  Alcotest.(check string) "timeline answers digest" "b3c60bc2bb6b093b5d8fff305147d37e" (timeline_digest ())

(* WINDOW folds the ledger's history behind each batch into a base level
   (Ledger.retire_before), which re-associates the usage sums.  Its
   decision streams must stay those of a ledger that keeps every
   breakpoint: the reference below packs the same batches with the same
   kernel and never retires.  Three heavy-load settings, each spanning at
   least twenty batches of the longest interval, at three interval
   lengths and two seeds. *)
let window_whole_history fabric policy ~step reqs =
  let ledger = Ledger.create fabric in
  let decisions = ref [] in
  List.iter
    (fun (k, batch) ->
      Flexible.pack_batch ~now:(float_of_int (k + 1) *. step) policy ledger
        ~decide:(fun r d -> decisions := (r, d) :: !decisions)
        batch)
    (Flexible.batches ~step reqs);
  Flexible.collect reqs (List.rev !decisions)

let window_retirement_keeps_decisions () =
  let fabric = Fabric.paper_default () in
  List.iter
    (fun (interarrival, policy, count) ->
      List.iter
        (fun seed ->
          let reqs =
            Gen.generate
              (Rng.create ~seed ())
              (Spec.paper_flexible ~count ~mean_interarrival:interarrival ())
          in
          List.iter
            (fun step ->
              let pin res =
                let b = Buffer.create (1 lsl 16) in
                pin_result b res;
                digest b
              in
              Alcotest.(check string)
                (Printf.sprintf "interarrival %g, %s, step %g, seed %Ld" interarrival
                   (Policy.name policy) step seed)
                (pin (window_whole_history fabric policy ~step reqs))
                (pin (Flexible.window fabric policy ~step reqs)))
            [ 100.; 200.; 400. ])
        [ 1L; 2L ])
    [
      (0.5, Policy.Fraction_of_max 1.0, 16_000);
      (2.0, Policy.Min_rate, 4_000);
      (5.0, Policy.Fraction_of_max 0.5, 4_000);
    ]

(* MALLEABLE's decision streams: ids, reasons, the bits of every step
   of every final profile, and every revision a committed reshape
   journals, read off a recording trace sink.  The three configurations
   run one seeded section 5.3 stream heavy enough to reshape. *)
let triples b ts =
  Array.iter
    (fun (from_, until, rate) ->
      bits b from_;
      bits b until;
      bits b rate)
    ts

let malleable_digest config seed =
  let reqs =
    Gen.generate (Rng.create ~seed ()) (Spec.paper_flexible ~count:2_000 ~mean_interarrival:14.0 ())
  in
  let seen = ref [] in
  let sink = { Gridbw_obs.Sink.emit = (fun e -> seen := e :: !seen); flush = ignore } in
  let ctx = Runtime.make ~obs:(Obs.create ~sink ()) () in
  let res = Malleable.run config ~ctx (Fabric.paper_default ()) reqs in
  let b = Buffer.create (1 lsl 18) in
  List.iter
    (fun (a : Allocation.t) ->
      Printf.bprintf b "%d" a.Allocation.request.Request.id;
      triples b (Rate_profile.to_triples (Option.get a.Allocation.profile));
      Buffer.add_char b '\n')
    res.Types.accepted;
  Buffer.add_string b "--\n";
  List.iter (fun ((r : Request.t), reason) -> pin_decision b r.Request.id (Types.Rejected reason)) res.Types.rejected;
  Buffer.add_string b "--\n";
  List.iter
    (function
      | Event.Reshape { id; revised; _ } when Array.length revised > 0 ->
          Printf.bprintf b "%d:" id;
          Array.iter
            (fun (rid, ts) ->
              Printf.bprintf b " %d" rid;
              triples b ts)
            revised;
          Buffer.add_char b '\n'
      | _ -> ())
    (List.rev !seen);
  digest b

let malleable_pinned () =
  List.iter
    (fun (label, config, want) ->
      Alcotest.(check string) label want (malleable_digest config 7L))
    [
      ("reshape = false", { Malleable.default with Malleable.reshape = false }, "7fc89b2c17d8466aeb233c535c175066");
      ("default", Malleable.default, "e2bfae2d1c61ce4be9f6f4f208e350a4");
      ("book_ahead = 7", { Malleable.default with Malleable.book_ahead = 7. }, "3a80ad8429cb52378b0230e9202de132");
    ]

(* The head-of-line-blocking FIFO on a rigid section 4.3 stream and a
   flexible section 5.3 one. *)
let fifo_pinned () =
  let fabric = Fabric.paper_default () in
  List.iter
    (fun (label, spec, want) ->
      let b = Buffer.create (1 lsl 16) in
      pin_result b (Rigid.fifo_blocking fabric (Gen.generate (Rng.create ~seed:7L ()) spec));
      Alcotest.(check string) label want (digest b))
    [
      ("rigid, load 0.8", Spec.paper_rigid ~count:2_000 ~load:0.8 (), "00fcf090322aaf9013cad2ee31bc6f12");
      ("flexible, interarrival 14", Spec.paper_flexible ~count:2_000 ~mean_interarrival:14.0 (), "4f3a4a0179af46d2b9e3ca2c5e998da4");
    ]

(* FCFS and Algorithm 1's three costs on a rigid section 4.3 stream at
   load 1.0 and a flexible section 5.3 one, each run by its rigid reading
   (bw = MinRate over the whole window). *)
let rigid_pinned () =
  let fabric = Fabric.paper_default () in
  List.iter
    (fun (stream, spec, wants) ->
      let reqs = Gen.generate (Rng.create ~seed:7L ()) spec in
      List.iter2
        (fun kind want ->
          let b = Buffer.create (1 lsl 16) in
          pin_result b (Rigid.run kind fabric reqs);
          Alcotest.(check string) (stream ^ ", " ^ Rigid.heuristic_name kind) want (digest b))
        [ `Fcfs; `Slots Rigid.Cumulated; `Slots Rigid.Min_bw; `Slots Rigid.Min_vol ]
        wants)
    [
      ( "rigid, load 1.0",
        Spec.paper_rigid ~count:5_000 ~load:1.0 (),
        [ "27883f3e3e26480649a18da18b7502b1"; "ca71ad07fca0d1bf48014c57fa8b0b96";
          "2131b103732e10237cfcb397456763e7"; "3858c92701e150fe7f2a9aa8bf1181cb" ] );
      ( "flexible, interarrival 14",
        Spec.paper_flexible ~count:5_000 ~mean_interarrival:14.0 (),
        [ "c1e0a26908adcc4b6fb655a23c93613b"; "a21916bf7b670028d9c9ba8cd2b6f6d2";
          "f17c2b79aacd04a9e026048f9acaa108"; "b936b4558fab4da8fbd7c37979137e56" ] );
    ]

(* --- allocation budgets ---

   Each bound sits between two figures measured in this test binary
   (OCaml 5.1.1, default minor heap): "before" is the code with a pointer
   AVL for the timeline, a packer that allocated its arrays and closures
   per batch, result lists consed and then reversed, and boxed xoshiro
   state; "after" is the pooled timeline, the reused WINDOW workspace,
   the decision log and the unboxed state.  Each figure repeats exactly
   from run to run. *)

let budget what ~bound got =
  if got > bound then Alcotest.failf "%s: %.2f, budget %.2f" what got bound

(* A warmed tree of 1,000 breakpoints: releasing and re-booking held
   intervals, exact cancels included, reuses freed pool slots.  Before:
   280,000 words over these 20,000 pairs; after: 0. *)
let timeline_steady_state () =
  let tl = Timeline.create () in
  let held =
    Array.init 500 (fun i -> (float_of_int i, float_of_int i +. 0.5, 1. +. float_of_int (i mod 7)))
  in
  Array.iter (fun (from_, until, bw) -> Timeline.add tl ~from_ ~until bw) held;
  let churn () =
    for round = 1 to 20 do
      for i = 0 to Array.length held - 1 do
        let from_, until, bw = held.(i * round mod Array.length held) in
        Timeline.remove tl ~from_ ~until bw;
        Timeline.add tl ~from_ ~until bw
      done
    done
  in
  churn ();
  let (), words = words_allocated churn in
  budget "timeline add/remove words" ~bound:0. words

let seed7_stream count =
  Gen.generate (Rng.create ~seed:7L ()) (Spec.paper_flexible ~count ~mean_interarrival:14.0 ())

(* Per request of the 50k seed-7 stream at f = 0.8, before -> after:
   WINDOW(400) 102.80 -> 64.35 minor and 12.90 -> 8.40 promoted words,
   GREEDY 26.20 -> 24.23 minor and 7.31 -> 6.03 promoted words. *)
let kernel_budgets () =
  let fabric = Fabric.paper_default () in
  let policy = Policy.Fraction_of_max 0.8 in
  let reqs = seed7_stream 50_000 in
  let n = List.length reqs in
  let _, minor, promoted = gc_words_per ~n (fun () -> Flexible.window fabric policy ~step:400. reqs) in
  budget "window(400) minor words per request" ~bound:80. minor;
  budget "window(400) promoted words per request" ~bound:10.5 promoted;
  let _, minor, promoted = gc_words_per ~n (fun () -> Flexible.greedy fabric policy reqs) in
  budget "greedy minor words per request" ~bound:25.2 minor;
  budget "greedy promoted words per request" ~bound:6.7 promoted

(* Before: 186 words per request; after: 60. *)
let generate_budget () =
  let _, words = words_allocated (fun () -> seed7_stream 50_000) in
  budget "Gen.generate words per request" ~bound:120. (words /. 50_000.)

let suites =
  [
    ( "kernel-pins",
      [
        case "timeline answers are bit-pinned on arbitrary floats" timeline_pinned;
        case "seed 7: greedy, online and window(400) streams"
          (kernels_pinned 7L ("c41dd533a509db22503e1caa1f21a5e3", "cf385d6341267e7b76e637886f585302",
             "b9bc0012a6fd231df145c56e23e91dbe"));
        case "seed 21: greedy, online and window(400) streams"
          (kernels_pinned 21L ("b832fddef7c3a2fe8b4a526fe62eda0e", "9550aaccc5fafae24d296322b06de747",
             "a7770eb2b72ac5dca719eb1a3d39212e"));
        case "seed 7: window(50) and window(5000) streams" (window_steps_pinned 7L ("4fb1c60875758135ec2574631d8d512d", "38ea11f695d06196ab0788603d326d8a"));
        case "seed 7: window-deferred streams" (deferred_pinned 7L ("25efe10d037ddb55299c204afeee52e1", "474a33545e2a21d17039faf83577aecb",
             "e2dcf929e1b8473bd32e2ed9e4785db0"));
        case "seed 21: window-deferred streams" (deferred_pinned 21L ("554b9ca4757d89a11c2242e34d4e83fd", "89b8792b7a6157b1b959103a1348562a",
             "dc0cc69caa243b27b270a7de864a7b2d"));
        case "window decides as on a never-retired ledger" window_retirement_keeps_decisions;
        case "seed 7: malleable streams, profiles and reshape revisions" malleable_pinned;
        case "seed 7: blocking FIFO streams" fifo_pinned;
        case "seed 7: FCFS and slot-heuristic streams" rigid_pinned;
      ] );
    ( "kernel-alloc",
      [
        case "steady-state timeline add/remove allocates nothing" timeline_steady_state;
        case "seed 7: window(400) and greedy words per request" kernel_budgets;
        case "seed 7: Gen.generate words per request" generate_budget;
      ] );
  ]
