(* Bit pins of the paper's kernels.

   The decision streams of GREEDY (Algorithm 2), the daemon's kernel
   ([Online.try_admit] in arrival order) and WINDOW(400) (Algorithm 3) on
   the section 5.3 flexible workload, MALLEABLE's step profiles and
   reshape revisions, the head-of-line-blocking FIFO baseline, and the
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
    (fun (_, batch) ->
      Flexible.pack_batch policy ledger ~decide:(fun r d -> decisions := (r, d) :: !decisions) batch)
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
   journals, read off a recording trace sink.  The four configurations
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
      ("reshape = false", { Malleable.default with Malleable.reshape = false }, "d4937aed4cd5a62e64c2c3e689be620a");
      ("default", Malleable.default, "59b7a7b198da346608c8736e156de3b0");
      ("book_ahead = 7", { Malleable.default with Malleable.book_ahead = 7. }, "b034f7675dd10e434bb93511d1eeda1c");
      ("kappa = 2", { Malleable.default with Malleable.kappa = 2. }, "d602779db8bd10123530197e38ac5207");
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
        case "window decides as on a never-retired ledger" window_retirement_keeps_decisions;
        case "seed 7: malleable streams, profiles and reshape revisions" malleable_pinned;
        case "seed 7: blocking FIFO streams" fifo_pinned;
      ] );
  ]
