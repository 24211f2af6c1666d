(* The sharded multicore engine (lib/shard).

   Three layers of evidence, matching the design's linearizability
   argument (DESIGN section 13):

   - an interleaving explorer drives two mock shard cores through every
     schedule of two concurrent cross-shard admissions (reserve/reserve
     contention, reserve/abort, commit-after-peer-abort, duplicate
     delivery) and asserts the invariants schedule by schedule: capacity
     is never oversubscribed, and at quiescence no freeze, no parked
     message and no reservation survives;

   - a qcheck linearizability property runs random concurrent
     admit/cancel histories on 2-4 shards under real coordinator
     threads, then replays the recorded history in ticket order on a
     fresh single-shard [Online] ledger and demands bit-identical
     decisions and port counters;

   - seeded section-5.3 workloads pin a 1-shard engine to the unsharded
     engine decision-for-decision, and a journal written by a sharded
     run recovers onto a different shard count ([of_events]
     re-partitioning) with identical state and identical future
     decisions. *)

module Rng = Gridbw_prng.Rng
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Port = Gridbw_alloc.Port
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Online = Gridbw_core.Online
module Scenario = Gridbw_check.Scenario
module Store = Gridbw_store.Store
module Replay = Gridbw_metrics.Replay
module Partition = Gridbw_shard.Partition
module Mailbox = Gridbw_shard.Mailbox
module Sequencer = Gridbw_shard.Sequencer
module Core = Gridbw_shard.Core
module Engine = Gridbw_shard.Engine
open Helpers

(* ------------------------------------------------------------------ *)
(* partition and plumbing units                                        *)

let partition_basics () =
  let p = Partition.make ~shards:3 in
  Alcotest.(check int) "ingress mod" 1 (Partition.of_ingress p 7);
  Alcotest.(check int) "egress mod" 2 (Partition.of_egress p 5);
  (match Partition.involved p ~ingress:7 ~egress:5 with
  | lo, Some hi ->
      Alcotest.(check int) "lo" 1 lo;
      Alcotest.(check int) "hi" 2 hi
  | _ -> Alcotest.fail "expected two shards");
  (match Partition.involved p ~ingress:5 ~egress:8 with
  | lo, None -> Alcotest.(check int) "collapsed" 2 lo
  | _ -> Alcotest.fail "expected one shard");
  (* ascending regardless of which side hashes lower *)
  (match Partition.involved p ~ingress:2 ~egress:0 with
  | lo, Some hi -> Alcotest.(check bool) "ascending" true (lo < hi)
  | _ -> Alcotest.fail "expected two shards");
  Alcotest.check_raises "shards >= 1" (Invalid_argument "Partition.make: shards must be >= 1")
    (fun () -> ignore (Partition.make ~shards:0))

let mailbox_fifo () =
  let b = Mailbox.create () in
  Mailbox.send b 1;
  Mailbox.send b 2;
  Mailbox.send b 3;
  Alcotest.(check int) "length" 3 (Mailbox.length b);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Mailbox.recv b);
  Alcotest.(check (option int)) "fifo 2" (Some 2) (Mailbox.recv b);
  Mailbox.close b;
  Alcotest.(check (option int)) "drains after close" (Some 3) (Mailbox.recv b);
  Alcotest.(check (option int)) "closed and empty" None (Mailbox.recv b);
  Alcotest.check_raises "send after close" (Invalid_argument "Mailbox.send: closed")
    (fun () -> Mailbox.send b 4)

let sequencer_ratchet () =
  let s = Sequencer.create () in
  let t0, at0 = Sequencer.next s ~ts:5.0 in
  let t1, at1 = Sequencer.next s ~ts:2.0 in
  let t2, at2 = Sequencer.next s ~ts:9.0 in
  Alcotest.(check (list int)) "tickets" [ 0; 1; 2 ] [ t0; t1; t2 ];
  Alcotest.(check (list (float 0.))) "clock ratchet: at monotone, never rewinds"
    [ 5.0; 5.0; 9.0 ] [ at0; at1; at2 ]

(* ------------------------------------------------------------------ *)
(* interleaving explorer                                               *)
(*                                                                     *)
(* Two coordinators run the two-phase protocol against two inline      *)
(* cores.  Each coordinator is a five-step state machine (freeze s0,   *)
(* freeze s1, probe s0, probe s1, decide+commit/abort); the explorer   *)
(* enumerates every interleaving of the two step streams.  A           *)
(* coordinator whose freeze got parked simply cannot progress until    *)
(* the peer resolves and the core pumps its continuation - exactly     *)
(* the blocking a real mailbox rpc would do.                           *)

type coord = {
  creq : Request.t;
  cbw : float;
  mutable pc : int;
  mutable pending : Core.reply option ref;  (* reply slot of the outstanding rpc *)
  mutable fits : bool * bool;
  mutable accepted : Allocation.t option;
}

let mk_coord ~op_base:_ ~id ~bw =
  let r = req ~id ~ingress:0 ~egress:1 ~volume:(bw *. 10.) ~ts:0. ~tf:10. ~max_rate:bw () in
  { creq = r; cbw = bw; pc = 0; pending = ref (Some (Core.Done { op = -1 })); fits = (false, false); accepted = None }

(* one protocol step; returns false when blocked (parked freeze) or done *)
let coord_step cores ~op c =
  if c.pc >= 5 then false
  else if !(c.pending) = None then false (* rpc outstanding: parked *)
  else begin
    let send s msg_of =
      let slot = ref None in
      c.pending <- slot;
      Core.handle cores.(s) (msg_of (fun r -> slot := Some r))
    in
    (match c.pc with
    | 0 -> send 0 (fun k -> Core.Freeze { op; k })
    | 1 -> send 1 (fun k -> Core.Freeze { op; k })
    | 2 ->
        send 0 (fun k -> Core.Probe { op; at = 0.; r = c.creq; bw = Some c.cbw; k });
        (match !(c.pending) with
        | Some (Core.Probed { ing = Some (ok, _); _ }) -> c.fits <- (ok, snd c.fits)
        | _ -> Alcotest.fail "shard 0 must probe the ingress side")
    | 3 ->
        send 1 (fun k -> Core.Probe { op; at = 0.; r = c.creq; bw = Some c.cbw; k });
        (match !(c.pending) with
        | Some (Core.Probed { egr = Some (ok, _); _ }) -> c.fits <- (fst c.fits, ok)
        | _ -> Alcotest.fail "shard 1 must probe the egress side")
    | 4 ->
        if fst c.fits && snd c.fits then begin
          let a = Allocation.make ~request:c.creq ~bw:c.cbw ~sigma:0. in
          c.accepted <- Some a;
          Core.handle cores.(0) (Core.Commit { op; a; k = ignore });
          Core.handle cores.(1) (Core.Commit { op; a; k = ignore })
        end
        else begin
          Core.handle cores.(0) (Core.Abort { op; k = ignore });
          Core.handle cores.(1) (Core.Abort { op; k = ignore })
        end
    | _ -> assert false);
    c.pc <- c.pc + 1;
    true
  end

(* all interleavings of a steps for coordinator 0 and b steps for 1 *)
let rec schedules a b =
  if a = 0 then [ List.init b (fun _ -> 1) ]
  else if b = 0 then [ List.init a (fun _ -> 0) ]
  else
    List.map (fun s -> 0 :: s) (schedules (a - 1) b)
    @ List.map (fun s -> 1 :: s) (schedules a (b - 1))

let cap = 100.0

let run_schedule ~bw0 ~bw1 sched =
  let fabric = fabric2 () in
  let partition = Partition.make ~shards:2 in
  let cores =
    [| Core.create ~track_duplicates:true ~shard:0 ~partition fabric;
       Core.create ~track_duplicates:true ~shard:1 ~partition fabric |]
  in
  let c0 = mk_coord ~op_base:0 ~id:100 ~bw:bw0 in
  let c1 = mk_coord ~op_base:1 ~id:101 ~bw:bw1 in
  let step = function 0 -> ignore (coord_step cores ~op:0 c0) | _ -> ignore (coord_step cores ~op:1 c1) in
  let invariants () =
    Array.iter
      (fun core ->
        let u0 = Core.ingress_used core 0 and u1 = Core.egress_used core 1 in
        if u0 > cap +. 1e-9 || u1 > cap +. 1e-9 then
          Alcotest.failf "oversubscribed mid-schedule: ing0=%g egr1=%g" u0 u1)
      cores
  in
  List.iter (fun who -> step who; invariants ()) sched;
  (* drain: alternate until neither can progress *)
  let rec drain n =
    if n > 0 then begin
      let p0 = coord_step cores ~op:0 c0 in
      invariants ();
      let p1 = coord_step cores ~op:1 c1 in
      invariants ();
      if p0 || p1 then drain (n - 1)
    end
  in
  drain 32;
  (cores, c0, c1)

let quiescent cores =
  Array.iter
    (fun core ->
      (match Core.frozen core with
      | None -> ()
      | Some op -> Alcotest.failf "shard %d still frozen by op %d" (Core.shard core) op);
      Alcotest.(check int)
        (Printf.sprintf "shard %d parked empty" (Core.shard core))
        0 (Core.parked_count core))
    cores

let explorer_reserve_reserve () =
  (* 60 + 60 > 100: under every interleaving exactly one wins, the loser
     aborts cleanly, and nothing leaks. *)
  let scheds = schedules 5 5 in
  Alcotest.(check int) "explorer enumerates C(10,5) schedules" 252 (List.length scheds);
  List.iter
    (fun sched ->
      let cores, c0, c1 = run_schedule ~bw0:60. ~bw1:60. sched in
      quiescent cores;
      let winners = List.filter_map (fun c -> c.accepted) [ c0; c1 ] in
      Alcotest.(check int) "exactly one admission wins" 1 (List.length winners);
      Alcotest.(check (float 0.)) "ingress counter = winner's grant" 60. (Core.ingress_used cores.(0) 0);
      Alcotest.(check (float 0.)) "egress counter = winner's grant" 60. (Core.egress_used cores.(1) 1);
      Alcotest.(check int) "one booking on each side" 1 (List.length (Core.booked_ids cores.(0)));
      Alcotest.(check int) "one booking on each side" 1 (List.length (Core.booked_ids cores.(1))))
    scheds

let explorer_reserve_abort () =
  (* both oversized: every interleaving ends with two aborts and a
     completely clean fabric - the reserve phase mutates nothing. *)
  List.iter
    (fun sched ->
      let cores, c0, c1 = run_schedule ~bw0:150. ~bw1:120. sched in
      quiescent cores;
      Alcotest.(check bool) "no winner" true (c0.accepted = None && c1.accepted = None);
      Alcotest.(check (float 0.)) "ingress untouched" 0. (Core.ingress_used cores.(0) 0);
      Alcotest.(check (float 0.)) "egress untouched" 0. (Core.egress_used cores.(1) 1);
      Array.iter
        (fun core -> Alcotest.(check (list int)) "no reservation survives" [] (Core.booked_ids core))
        cores)
    (schedules 5 5)

let explorer_mixed () =
  (* 80 + 30: whoever sequences first wins; the other fits only if the
     winner was the small one.  Either way the counters equal the sum of
     the committed grants and never exceed capacity. *)
  List.iter
    (fun sched ->
      let cores, c0, c1 = run_schedule ~bw0:80. ~bw1:30. sched in
      quiescent cores;
      let total = List.fold_left (fun acc c -> match c.accepted with Some a -> acc +. a.Allocation.bw | None -> acc) 0. [ c0; c1 ] in
      Alcotest.(check (float 0.)) "ingress = sum of committed grants" total (Core.ingress_used cores.(0) 0);
      Alcotest.(check (float 0.)) "egress = sum of committed grants" total (Core.egress_used cores.(1) 1);
      Alcotest.(check bool) "at least one wins" true (total > 0.))
    (schedules 5 5)

let duplicate_delivery () =
  let fabric = fabric2 () in
  let partition = Partition.make ~shards:2 in
  let core = Core.create ~track_duplicates:true ~shard:0 ~partition fabric in
  let r = req ~id:7 ~ingress:0 ~egress:1 ~volume:500. ~ts:0. ~tf:10. ~max_rate:50. () in
  let a = Allocation.make ~request:r ~bw:50. ~sigma:0. in
  let got = ref [] in
  let k tag = fun reply -> got := (tag, reply) :: !got in
  Core.handle core (Core.Freeze { op = 0; k = k "f" });
  Core.handle core (Core.Freeze { op = 0; k = k "f-dup" });  (* duplicate while frozen: re-acked *)
  Core.handle core (Core.Commit { op = 0; a; k = k "c" });
  let used = Core.ingress_used core 0 in
  Alcotest.(check (float 0.)) "committed once" 50. used;
  (* duplicate deliveries of a resolved op are acknowledged, never re-applied *)
  Core.handle core (Core.Commit { op = 0; a; k = k "c-dup" });
  Core.handle core (Core.Freeze { op = 0; k = k "f-late" });
  Core.handle core (Core.Abort { op = 0; k = k "a-late" });
  Alcotest.(check (float 0.)) "duplicates are no-ops" used (Core.ingress_used core 0);
  Alcotest.(check (option int)) "not re-frozen by late duplicate" None (Core.frozen core);
  let dones = List.filter (fun (_, r) -> match r with Core.Done _ -> true | _ -> false) !got in
  (* the real commit resolves with Done, and so do all three duplicates *)
  Alcotest.(check int) "every duplicate acked Done" 4 (List.length dones)

let commit_after_peer_abort () =
  (* op 0 reserves both shards, the coordinator decides to abort; a stray
     duplicate Commit arriving after the abort must not book anything. *)
  let fabric = fabric2 () in
  let partition = Partition.make ~shards:2 in
  let cores =
    [| Core.create ~track_duplicates:true ~shard:0 ~partition fabric;
       Core.create ~track_duplicates:true ~shard:1 ~partition fabric |]
  in
  let r = req ~id:9 ~ingress:0 ~egress:1 ~volume:400. ~ts:0. ~tf:10. ~max_rate:40. () in
  let a = Allocation.make ~request:r ~bw:40. ~sigma:0. in
  Array.iter (fun c -> Core.handle c (Core.Freeze { op = 3; k = ignore })) cores;
  Core.handle cores.(0) (Core.Abort { op = 3; k = ignore });
  (* shard 1's abort is delayed; meanwhile a duplicated commit hits shard 0 *)
  Core.handle cores.(0) (Core.Commit { op = 3; a; k = ignore });
  Core.handle cores.(1) (Core.Abort { op = 3; k = ignore });
  Core.handle cores.(1) (Core.Commit { op = 3; a; k = ignore });
  quiescent cores;
  Alcotest.(check (float 0.)) "commit after abort books nothing (ing)" 0. (Core.ingress_used cores.(0) 0);
  Alcotest.(check (float 0.)) "commit after abort books nothing (egr)" 0. (Core.egress_used cores.(1) 1);
  Array.iter (fun c -> Alcotest.(check (list int)) "no booking" [] (Core.booked_ids c)) cores

let protocol_violation_raises () =
  let fabric = fabric2 () in
  let partition = Partition.make ~shards:1 in
  let core = Core.create ~shard:0 ~partition fabric in
  let r = req ~id:1 () in
  Alcotest.check_raises "probe without freeze"
    (Invalid_argument "Shard.Core: probe for op 5 without freeze") (fun () ->
      Core.handle core (Core.Probe { op = 5; at = 0.; r; bw = Some 10.; k = ignore }))

(* ------------------------------------------------------------------ *)
(* linearizability: concurrent histories replay on the single ledger   *)

let check_same_decision ~i expected actual =
  match (expected, actual) with
  | Types.Accepted a, Types.Accepted b ->
      if not (a.Allocation.bw = b.Allocation.bw && a.Allocation.sigma = b.Allocation.sigma
              && a.Allocation.tau = b.Allocation.tau) then
        Alcotest.failf "op %d: accepted allocations differ (bw %.17g vs %.17g, sigma %.17g vs %.17g)"
          i a.Allocation.bw b.Allocation.bw a.Allocation.sigma b.Allocation.sigma
  | Types.Rejected x, Types.Rejected y ->
      if x <> y then Alcotest.failf "op %d: rejection reasons differ" i
  | Types.Accepted _, Types.Rejected _ -> Alcotest.failf "op %d: engine accepted, replay rejected" i
  | Types.Rejected _, Types.Accepted _ -> Alcotest.failf "op %d: engine rejected, replay accepted" i

(* Replay a recorded history in ticket order on a fresh unsharded ledger
   and demand bit-identical decisions; returns the ledger for counter
   comparison. *)
let replay_history ~policy ~fabric history =
  let online = Online.create fabric in
  let booked = Hashtbl.create 64 in
  List.iteri
    (fun i (h : Engine.hist_entry) ->
      match h.Engine.op with
      | Engine.H_admit r -> (
          let d = Online.try_admit online policy r ~at:h.Engine.at in
          (match h.Engine.ok with
          | Some expected -> check_same_decision ~i expected d
          | None -> Alcotest.failf "op %d: admit without recorded decision" i);
          match d with
          | Types.Accepted a -> Hashtbl.replace booked r.Request.id a
          | Types.Rejected _ -> ())
      | Engine.H_cancel { id; _ } ->
          Online.advance_to online h.Engine.at;
          let cancelled =
            match Hashtbl.find_opt booked id with
            | Some a -> Online.preempt online a
            | None -> false
          in
          let expected = h.Engine.ok <> None in
          if cancelled <> expected then
            Alcotest.failf "op %d: cancel of %d %s on replay but %s on the sharded run" i id
              (if cancelled then "succeeded" else "failed")
              (if expected then "succeeded" else "failed"))
    history;
  online

let compare_counters ~fabric engine online =
  for i = 0 to Fabric.ingress_count fabric - 1 do
    let sharded = Engine.ingress_used engine i and ledger = Online.used online (Port.ingress i) in
    if sharded <> ledger then
      Alcotest.failf "ingress %d: sharded %.17g <> replay %.17g" i sharded ledger
  done;
  for e = 0 to Fabric.egress_count fabric - 1 do
    let sharded = Engine.egress_used engine e and ledger = Online.used online (Port.egress e) in
    if sharded <> ledger then
      Alcotest.failf "egress %d: sharded %.17g <> replay %.17g" e sharded ledger
  done

let lin_gen =
  QCheck2.Gen.(
    tup4 seed_gen (int_range 2 4) (int_range 2 3) (int_range 10 40))

let prop_linearizable (seed, shards, nthreads, nreqs) =
  let fabric = Fabric.uniform ~ingress_count:4 ~egress_count:4 ~capacity:120. in
  let policy = Policy.Fraction_of_max 0.5 in
  let engine = Engine.create ~record:true ~shards policy fabric in
  Fun.protect ~finally:(fun () -> Engine.stop engine) @@ fun () ->
  let worker w () =
    let rng = Rng.create ~seed:(Int64.of_int ((seed * 31) + w)) () in
    let mine = ref [] in
    for j = 0 to nreqs - 1 do
      let id = (w * 10_000) + j in
      let r = Scenario.random_request rng fabric ~hot:0.5 ~id () in
      (match Engine.try_admit engine r with
      | Types.Accepted a -> mine := a :: !mine
      | Types.Rejected _ -> ());
      (* cancel-heavy: about a third of my accepted transfers get pulled *)
      if Rng.float rng 1.0 < 0.33 then
        match !mine with
        | a :: rest ->
            ignore (Engine.cancel engine a);
            mine := rest
        | [] -> ()
    done
  in
  let threads = List.init nthreads (fun w -> Thread.create (worker w) ()) in
  List.iter Thread.join threads;
  let history = Engine.history engine in
  (* tickets are a permutation 0..n-1: every operation sequenced exactly once *)
  List.iteri
    (fun i (h : Engine.hist_entry) ->
      if h.Engine.ticket <> i then Alcotest.failf "history has a ticket gap at %d" i)
    history;
  let online = replay_history ~policy ~fabric history in
  (* bring both sides to the same global instant: shards no late
     operation touched still hold releases the replay ledger drained *)
  Online.advance_to online (Engine.now engine);
  Engine.settle engine;
  compare_counters ~fabric engine online;
  Alcotest.(check int)
    "active transfers match the replayed ledger"
    (Online.active_count online) (Engine.active_count engine);
  true

(* ------------------------------------------------------------------ *)
(* shards=1 parity with the unsharded engine on section 5.3 workloads  *)

let prop_shards1_parity seed =
  let requests = workload_of_seed ~n:60 seed in
  let fabric = fabric2 () in
  let policy = Policy.Min_rate in
  let engine = Engine.create ~spawn:false ~shards:1 policy fabric in
  let online = Online.create fabric in
  List.iteri
    (fun i r ->
      let at = Float.max (Online.now online) r.Request.ts in
      let expected = Online.try_admit online policy r ~at in
      let actual = Engine.try_admit engine r in
      check_same_decision ~i expected actual)
    requests;
  compare_counters ~fabric engine online;
  Alcotest.(check (float 0.)) "clocks agree" (Online.now online) (Engine.now engine);
  true

(* ------------------------------------------------------------------ *)
(* recovery: a sharded journal re-partitions onto a new shard count    *)

let with_tmpdir f =
  let dir = Filename.temp_file "gridbw_shard" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f dir)

let recovery_repartitions () =
  with_tmpdir @@ fun dir ->
  let fabric = Fabric.uniform ~ingress_count:4 ~egress_count:4 ~capacity:120. in
  let policy = Policy.Fraction_of_max 0.5 in
  let store = Store.create ~dir fabric in
  let engine = Engine.create ~journal:store ~spawn:false ~shards:2 policy fabric in
  let rng = rng ~seed:11L () in
  let accepted = ref [] in
  for id = 0 to 79 do
    let r = Scenario.random_request rng fabric ~hot:0.4 ~id () in
    (match Engine.try_admit engine r with
    | Types.Accepted a -> accepted := a :: !accepted
    | Types.Rejected _ -> ());
    if id mod 7 = 3 then
      match !accepted with
      | a :: rest ->
          ignore (Engine.cancel engine a);
          accepted := rest
      | [] -> ()
  done;
  Engine.flush engine;
  (* freeze the live run's observable state before closing its journal *)
  let live_ing = Array.init 4 (Engine.ingress_used engine) in
  let live_egr = Array.init 4 (Engine.egress_used engine) in
  let live_active = Engine.active_count engine in
  let live_now = Engine.now engine in
  Store.close store;
  let recovered =
    match Store.recover ~dir () with Ok r -> r | Error e -> Alcotest.failf "recover: %s" e
  in
  (* rebuild on the original count and on a re-partitioned one: the
     per-port replay must land every counter and every booking on its
     owner bit-identically in both *)
  let rebuild shards =
    match
      Engine.of_events ~spawn:false ~shards ~policy
        ~fabric:recovered.Store.journal.Replay.fabric recovered.Store.journal.Replay.events
    with
    | Ok e -> e
    | Error e -> Alcotest.failf "of_events shards=%d: %s" shards e
  in
  let e2 = rebuild 2 and e3 = rebuild 3 in
  List.iter
    (fun (label, e) ->
      for i = 0 to Fabric.ingress_count fabric - 1 do
        if Engine.ingress_used e i <> live_ing.(i) then
          Alcotest.failf "%s: ingress %d differs from the live run" label i
      done;
      for g = 0 to Fabric.egress_count fabric - 1 do
        if Engine.egress_used e g <> live_egr.(g) then
          Alcotest.failf "%s: egress %d differs from the live run" label g
      done;
      Alcotest.(check int) (label ^ ": active bookings survive") live_active (Engine.active_count e);
      Alcotest.(check (float 0.)) (label ^ ": clock restored") live_now (Engine.now e))
    [ ("same-count", e2); ("re-partitioned", e3) ];
  (* and the future is identical: the same tail of fresh requests decides
     the same on both recovered engines *)
  let tail = List.init 40 (fun j -> Scenario.random_request rng fabric ~hot:0.4 ~id:(100 + j) ()) in
  List.iteri
    (fun i r -> check_same_decision ~i (Engine.try_admit e2 r) (Engine.try_admit e3 r))
    tail;
  Store.close recovered.Store.store

let suites =
  [
    ( "shard.partition",
      [
        case "ports map by modulus; involved shards come out ascending" partition_basics;
        case "mailbox is FIFO, drains after close, refuses new sends" mailbox_fifo;
        case "sequencer tickets are dense and its clock only ratchets forward" sequencer_ratchet;
      ] );
    ( "shard.explorer",
      [
        case "reserve/reserve: every interleaving admits exactly one of two conflicting requests"
          explorer_reserve_reserve;
        case "reserve/abort: aborts mutate nothing under any interleaving" explorer_reserve_abort;
        case "mixed sizes: counters always equal the committed grants" explorer_mixed;
        case "duplicate delivery of freeze/commit/abort is acked but never re-applied"
          duplicate_delivery;
        case "a stray commit after the peer aborted books nothing" commit_after_peer_abort;
        case "probe without a freeze is a protocol violation" protocol_violation_raises;
      ] );
    ( "shard.linearizable",
      [
        qcase ~count:30 "concurrent admit/cancel histories replay bit-identically on one ledger"
          lin_gen prop_linearizable;
        qcase ~count:40 "--shards 1 matches the unsharded engine on section 5.3 workloads"
          seed_gen prop_shards1_parity;
        case "a 2-shard journal recovers onto 3 shards with identical state and future"
          recovery_repartitions;
      ] );
  ]
