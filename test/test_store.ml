(* Durable admission journal (lib/store): WAL framing and group commit,
   segment rotation, and the crash matrix — a journaled GREEDY
   run carved at every record boundary, mid-record, and with flipped
   bytes must recover deterministically and resume to a summary
   bit-identical to the uninterrupted baseline. *)

open Helpers
module Wal = Gridbw_store.Wal
module Store = Gridbw_store.Store
module Replay = Gridbw_metrics.Replay
module Torn = Gridbw_fault.Torn
module Flexible = Gridbw_core.Flexible
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Summary = Gridbw_metrics.Summary
module Reference = Gridbw_check.Reference
module Profile_ref = Gridbw_alloc.Profile_ref
module Allocation = Gridbw_alloc.Allocation
module Port = Gridbw_alloc.Port
module Request = Gridbw_request.Request
module Obs = Gridbw_obs.Obs
module Metrics = Gridbw_obs.Metrics
module Event = Gridbw_obs.Event

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "gridbw-store" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* Deterministic WAL configs: an hour of delay so wall-clock never
   triggers a sync mid-test. *)
let wal_config ?(batch = 4) ?(segment_bytes = Wal.default_config.Wal.segment_bytes) () =
  { Wal.batch; delay = 3600.; segment_bytes }

let store_config ?batch ?segment_bytes () =
  { Store.default_config with wal = wal_config ?batch ?segment_bytes () }

(* --- WAL unit tests --- *)

let test_frame_roundtrip () =
  with_tmpdir (fun dir ->
      let payloads = [ ""; "\n"; "\xB1"; String.make 300 'z' ] in
      let w = Wal.create ~config:(wal_config ~batch:1 ()) ~dir () in
      List.iter (Wal.append w) payloads;
      Wal.close w;
      let s = Wal.scan ~dir in
      Alcotest.(check (list string)) "payloads survive" payloads
        (List.map (fun (r : Wal.record) -> r.Wal.payload) s.Wal.records);
      (* Any single corrupted payload byte breaks the CRC: the log is cut
         before that record. *)
      let last = List.nth s.Wal.records 3 in
      Torn.flip_byte ~dir (last.Wal.off + Gridbw_wire.Frame.header_bytes + 7);
      let s = Wal.scan ~dir in
      Alcotest.(check int) "records before the flip survive" 3 s.Wal.valid;
      Alcotest.(check bool) "corruption detected" true (s.Wal.torn <> None))

let test_group_commit () =
  with_tmpdir (fun dir ->
      let syncs = ref [] in
      let w =
        Wal.create ~config:(wal_config ~batch:3 ()) ~on_sync:(fun n -> syncs := n :: !syncs)
          ~dir ()
      in
      for i = 1 to 7 do
        Wal.append w (Printf.sprintf "payload-%d" i)
      done;
      Alcotest.(check (list int)) "one fsync per full batch" [ 3; 3 ] (List.rev !syncs);
      Wal.close w;
      Alcotest.(check (list int)) "close flushes the remainder" [ 3; 3; 1 ] (List.rev !syncs);
      let s = Wal.scan ~dir in
      Alcotest.(check int) "all records valid" 7 s.Wal.valid;
      Alcotest.(check bool) "clean tail" true (s.Wal.torn = None))

let test_segment_rotation () =
  with_tmpdir (fun dir ->
      let w = Wal.create ~config:(wal_config ~batch:1 ~segment_bytes:64 ()) ~dir () in
      for i = 1 to 20 do
        Wal.append w (Printf.sprintf "record-number-%03d-padded-to-force-rotation" i)
      done;
      Wal.close w;
      let segs =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".log")
      in
      Alcotest.(check bool) "log rotated" true (List.length segs > 1);
      let s = Wal.scan ~dir in
      Alcotest.(check int) "scan crosses segments" 20 s.Wal.valid;
      Alcotest.(check bool) "clean tail" true (s.Wal.torn = None);
      (* Reopening continues the numbering. *)
      let w2 = Wal.reopen ~config:(wal_config ~batch:1 ~segment_bytes:64 ()) ~dir ~records:20 () in
      Wal.append w2 "one-more";
      Wal.close w2;
      Alcotest.(check int) "append after reopen" 21 (Wal.scan ~dir).Wal.valid)

let test_segment_gap_orphans_tail () =
  with_tmpdir (fun dir ->
      let w = Wal.create ~config:(wal_config ~batch:1 ~segment_bytes:64 ()) ~dir () in
      for i = 1 to 20 do
        Wal.append w (Printf.sprintf "record-number-%03d-padded-to-force-rotation" i)
      done;
      Wal.close w;
      let segs = List.sort compare (Array.to_list (Sys.readdir dir)) in
      (* Delete a middle segment: everything after the gap is orphaned. *)
      (match segs with
      | _first :: second :: _ :: _ -> Sys.remove (Filename.concat dir second)
      | _ -> Alcotest.fail "expected at least three segments");
      let s = Wal.scan ~dir in
      Alcotest.(check bool) "gap detected" true (s.Wal.torn <> None);
      Alcotest.(check bool) "only the prefix survives" true (s.Wal.valid < 20))

(* --- the crash matrix ---

   For a journaled GREEDY run: carve a copy of the store at every record
   boundary and mid-record, recover, resume, and require the combined
   summary to be bit-identical to the uninterrupted baseline.  A cut
   inside the 4-record capacity prefix must instead fail cleanly (no
   fabric to recover against). *)

let policy = Policy.Fraction_of_max 0.8

let n_prefix = 4 (* fabric2 = 2 ingress + 2 egress capacity records *)

let baseline requests =
  let result = Flexible.greedy (fabric2 ()) policy requests in
  Summary.compute (fabric2 ()) ~all:requests ~accepted:result.Types.accepted

(* A run context whose only sink is [store]'s journal. *)
let journaled store = Gridbw_core.Runtime.make ~obs:(Store.attach store Obs.disabled) ()

let journal_run ?batch ?segment_bytes ~dir requests =
  let t0 = List.fold_left (fun t (r : Request.t) -> Float.min t r.Request.ts) 0.0 requests in
  let store =
    Store.create ~config:(store_config ?batch ?segment_bytes ()) ~time:t0 ~dir (fabric2 ())
  in
  let result = Flexible.greedy ~ctx:(journaled store) (fabric2 ()) policy requests in
  Store.close store;
  result

(* The recovered journal passes the one recovery audit. *)
let expect_clean ~label r =
  match Reference.audit_recovered r with
  | Reference.Clean _ -> ()
  | Reference.Skipped why -> Alcotest.failf "%s: recovery audit skipped: %s" label why
  | Reference.Failed failures ->
      Alcotest.failf "%s: recovery audit failed: %s" label (String.concat "; " failures)

(* Resume GREEDY on a recovered journal the way [gridbw run --store-dir]
   does: the audit, then the one driver. *)
let resume ~label (r : Store.recovered) requests =
  expect_clean ~label r;
  Flexible.greedy ~ctx:(journaled r.Store.store) ~journal:r.Store.journal.Replay.events
    r.Store.journal.Replay.fabric
    policy requests

let resume_and_check ~label ~expected ~dir requests =
  match Store.recover ~config:(store_config ()) ~dir () with
  | Error msg -> Alcotest.failf "%s: recovery failed: %s" label msg
  | Ok r ->
      let result = resume ~label r requests in
      Store.close r.Store.store;
      let got = Summary.compute (fabric2 ()) ~all:requests ~accepted:result.Types.accepted in
      if got <> expected then
        Alcotest.failf "%s: resumed summary differs:@.baseline %a@.resumed %a" label Summary.pp
          expected Summary.pp got;
      (* The resumed bookings keep the journal's ledger within capacity. *)
      expect_clean ~label r

let expect_prefix_error ~label ~dir =
  match Store.recover ~config:(store_config ()) ~dir () with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: recovery accepted a cut inside the capacity prefix" label

let carve ~src ~scratch n =
  if Sys.file_exists scratch then rm_rf scratch;
  Torn.copy_store ~src ~dst:scratch;
  Torn.truncate_at ~dir:scratch n;
  scratch

let crash_matrix seed () =
  let requests = workload_of_seed ~n:30 seed in
  let expected = baseline requests in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let scratch = Filename.concat tmp "carved" in
      ignore (journal_run ~batch:4 ~dir:src requests);
      let boundaries, total = Torn.record_boundaries ~dir:src in
      Alcotest.(check bool) "journal is non-trivial" true (List.length boundaries > n_prefix);
      List.iteri
        (fun kept boundary ->
          (* Clean cut exactly before record [kept]... *)
          let label = Printf.sprintf "seed %d, cut at record %d" seed kept in
          let dir = carve ~src ~scratch boundary in
          if kept < n_prefix then expect_prefix_error ~label ~dir
          else resume_and_check ~label ~expected ~dir requests;
          (* ...and a torn cut in the middle of record [kept]. *)
          let next =
            match List.nth_opt boundaries (kept + 1) with Some b -> b | None -> total
          in
          if next > boundary + 1 then begin
            let label = Printf.sprintf "seed %d, torn inside record %d" seed kept in
            let dir = carve ~src ~scratch (boundary + ((next - boundary) / 2)) in
            if kept < n_prefix then expect_prefix_error ~label ~dir
            else resume_and_check ~label ~expected ~dir requests
          end)
        boundaries)

let test_flipped_byte_truncates () =
  let requests = workload_of_seed ~n:30 3 in
  let expected = baseline requests in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let scratch = Filename.concat tmp "carved" in
      ignore (journal_run ~batch:4 ~dir:src requests);
      let boundaries, _total = Torn.record_boundaries ~dir:src in
      (* Corrupt a byte inside a mid-log record: CRC (or the frame) breaks,
         recovery truncates there and the resume still converges. *)
      let target = List.nth boundaries (List.length boundaries / 2) in
      if Sys.file_exists scratch then rm_rf scratch;
      Torn.copy_store ~src ~dst:scratch;
      Torn.flip_byte ~dir:scratch (target + 3);
      resume_and_check ~label:"flipped byte" ~expected ~dir:scratch requests)

let recover_exn ~label dir =
  match Store.recover ~config:(store_config ()) ~dir () with
  | Error msg -> Alcotest.failf "%s: recovery failed: %s" label msg
  | Ok r ->
      Store.close r.Store.store;
      r

let test_double_crash () =
  let requests = workload_of_seed ~n:30 3 in
  let expected = baseline requests in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let scratch = Filename.concat tmp "carved" in
      ignore (journal_run ~batch:4 ~dir:src requests);
      let boundaries, _ = Torn.record_boundaries ~dir:src in
      let cut_a = List.nth boundaries (List.length boundaries / 3) in
      let dir = carve ~src ~scratch cut_a in
      (* First crash: recover and resume, journaling into the same store. *)
      resume_and_check ~label:"first crash" ~expected ~dir requests;
      (* Second crash: carve the resumed journal again, further in. *)
      let boundaries2, _ = Torn.record_boundaries ~dir in
      let cut_b = List.nth boundaries2 (2 * List.length boundaries2 / 3) in
      Torn.truncate_at ~dir cut_b;
      resume_and_check ~label:"second crash" ~expected ~dir requests)

(* --- the sharded crash leg ---

   In a journal written through the sharded engine, the reserve phase
   of a cross-shard admission writes nothing, and the single Accept
   record appended inside the freeze window is the commit point for
   BOTH ports at once.  A SIGKILL between reserve and commit
   therefore leaves either a fully-booked admission or no trace — never
   one port booked and the other not.  This matrix carves a sharded
   journal at every record boundary and mid-record (the same cuts a kill
   can produce) and demands each carve recover to a state where every
   surviving booking holds both its ports: the reference audit is clean,
   each port counter equals the sum of the surviving still-active grants
   on that side, and re-partitioning onto a different shard count
   reproduces the same counters bit for bit. *)

module Shard_engine = Gridbw_shard.Engine
module Scenario = Gridbw_check.Scenario

let sharded_workload () =
  let module Rng = Gridbw_prng.Rng in
  let rng = rng ~seed:23L () in
  List.init 40 (fun id ->
      (* most pairs straddle the two shards (ingress and egress of
         different parities); modest rates so plenty get booked *)
      let ingress = id mod 2 in
      let egress = if id mod 3 = 0 then ingress else 1 - ingress in
      let ts = Rng.float_in rng 0. 50. in
      let dur = Rng.float_in rng 5. 40. in
      let min_rate = Rng.float_in rng 5. 40. in
      Request.make ~id ~ingress ~egress ~volume:(min_rate *. dur) ~ts ~tf:(ts +. dur)
        ~max_rate:(min_rate *. 2.))

let sharded_journal_run ~dir requests =
  let t0 = List.fold_left (fun t (r : Request.t) -> Float.min t r.Request.ts) 0.0 requests in
  let store = Store.create ~config:(store_config ~batch:4 ()) ~time:t0 ~dir (fabric2 ()) in
  let engine = Shard_engine.create ~journal:store ~spawn:false ~shards:2 policy (fabric2 ()) in
  let cross = ref 0 in
  let accepted = ref [] in
  List.iteri
    (fun i (r : Request.t) ->
      (match Shard_engine.try_admit engine r with
      | Types.Accepted a ->
          if r.Request.ingress mod 2 <> r.Request.egress mod 2 then incr cross;
          accepted := a :: !accepted
      | Types.Rejected _ -> ());
      (* cancel-heavy: every few ops pull the most recent booking *)
      if i mod 5 = 2 then
        match !accepted with
        | a :: rest ->
            ignore (Shard_engine.cancel engine a);
            accepted := rest
        | [] -> ())
    requests;
  Shard_engine.flush engine;
  Store.close store;
  Alcotest.(check bool) "workload exercises cross-shard admissions" true (!cross > 0)

let check_sharded_recovery ~label ~dir =
  match Store.recover ~config:(store_config ()) ~dir () with
  | Error msg -> Alcotest.failf "%s: recovery failed: %s" label msg
  | Ok r ->
      Fun.protect ~finally:(fun () -> Store.close r.Store.store) @@ fun () ->
      expect_clean ~label r;
      (* [accepted] keeps preempted bookings (the Preempt cuts the
         booking's commitment but the decision stands in history); the
         engine must still hold the survivors only *)
      let allocs = r.Store.journal.Replay.survivors in
      let rebuild shards =
        match
          Shard_engine.of_events ~spawn:false ~shards ~policy
            ~fabric:r.Store.journal.Replay.fabric r.Store.journal.Replay.events
        with
        | Ok e -> e
        | Error e -> Alcotest.failf "%s: of_events shards=%d: %s" label shards e
      in
      let e2 = rebuild 2 in
      (* restore parks releases already due at the horizon: drain them
         before reading counters *)
      Shard_engine.settle e2;
      (* both-booked-or-neither: every port counter must equal the sum of
         the surviving active grants on that side — a half-committed
         cross-shard admission would leave one side short *)
      let now = Shard_engine.now e2 in
      let exp_ing = Array.make 2 0. and exp_egr = Array.make 2 0. in
      let active = ref 0 in
      List.iter
        (fun (a : Allocation.t) ->
          if a.Allocation.tau > now then begin
            incr active;
            let r = a.Allocation.request in
            exp_ing.(r.Request.ingress) <- exp_ing.(r.Request.ingress) +. a.Allocation.bw;
            exp_egr.(r.Request.egress) <- exp_egr.(r.Request.egress) +. a.Allocation.bw
          end)
        allocs;
      Alcotest.(check int)
        (label ^ ": every surviving booking is active on both sides")
        !active (Shard_engine.active_count e2);
      for i = 0 to 1 do
        let got = Shard_engine.ingress_used e2 i in
        if Float.abs (got -. exp_ing.(i)) > 1e-9 then
          Alcotest.failf "%s: ingress %d holds %.17g, surviving grants sum to %.17g" label i got
            exp_ing.(i)
      done;
      for e = 0 to 1 do
        let got = Shard_engine.egress_used e2 e in
        if Float.abs (got -. exp_egr.(e)) > 1e-9 then
          Alcotest.failf "%s: egress %d holds %.17g, surviving grants sum to %.17g" label e got
            exp_egr.(e)
      done;
      (* and re-partitioning the same carve is exact *)
      let e3 = rebuild 3 in
      Shard_engine.settle e3;
      for i = 0 to 1 do
        if Shard_engine.ingress_used e3 i <> Shard_engine.ingress_used e2 i then
          Alcotest.failf "%s: ingress %d differs under re-partitioning" label i
      done;
      for e = 0 to 1 do
        if Shard_engine.egress_used e3 e <> Shard_engine.egress_used e2 e then
          Alcotest.failf "%s: egress %d differs under re-partitioning" label e
      done

let test_sharded_crash_matrix () =
  let requests = sharded_workload () in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let scratch = Filename.concat tmp "carved" in
      sharded_journal_run ~dir:src requests;
      let boundaries, total = Torn.record_boundaries ~dir:src in
      Alcotest.(check bool) "journal is non-trivial" true (List.length boundaries > n_prefix);
      List.iteri
        (fun kept boundary ->
          let label = Printf.sprintf "sharded cut at record %d" kept in
          let dir = carve ~src ~scratch boundary in
          if kept < n_prefix then expect_prefix_error ~label ~dir
          else check_sharded_recovery ~label ~dir;
          let next =
            match List.nth_opt boundaries (kept + 1) with Some b -> b | None -> total
          in
          if next > boundary + 1 then begin
            let label = Printf.sprintf "sharded torn inside record %d" kept in
            let dir = carve ~src ~scratch (boundary + ((next - boundary) / 2)) in
            if kept < n_prefix then expect_prefix_error ~label ~dir
            else check_sharded_recovery ~label ~dir
          end)
        boundaries)

(* --- the malleable crash leg ---

   A journaled MALLEABLE run commits each profiled admission as ONE
   Reshape record carrying the new step schedule and every
   pending-profile revision the admission performed.  A SIGKILL between
   "revisions applied" and "admit recorded" must be unrepresentable on
   disk: carving the journal in the middle of a Reshape record recovers
   to a state bit-identical to the boundary before it (neither the admit
   nor any revision), and the boundary after it holds both.  The broad
   matrix additionally recovers every boundary and mid-record cut and
   audits the surviving profiled bookings. *)

module Malleable = Gridbw_malleable.Malleable
module Rate_profile = Gridbw_alloc.Rate_profile

(* The events of each WAL record in log order: one, or an arrival and
   its decision. *)
let record_events dir =
  List.map
    (fun (r : Wal.record) ->
      match Gridbw_obs.Event_codec.Binary.of_record r.Wal.payload with
      | Ok evs -> evs
      | Error e -> Alcotest.failf "record %d does not decode: %s" r.Wal.index e)
    (Wal.scan ~dir).Wal.records

let malleable_journal_run ?obs ~dir requests =
  let t0 = List.fold_left (fun t (r : Request.t) -> Float.min t r.Request.ts) 0.0 requests in
  let store = Store.create ~config:(store_config ~batch:4 ()) ~time:t0 ~dir (fabric2 ()) in
  let result =
    Malleable.run
      { Malleable.default with Malleable.book_ahead = 10. }
      ~ctx:(Gridbw_core.Runtime.make ~obs:(Store.attach store (Option.value obs ~default:Obs.disabled)) ())
      (fabric2 ()) requests
  in
  Store.close store;
  result

(* Recover a carve and return its profiled state as [(id, triples)] rows,
   after auditing it: the recovery audit passes, and every profile
   closes to its volume bitwise. *)
let malleable_recovered_state ~label ~dir =
  match Store.recover ~config:(store_config ()) ~dir () with
  | Error msg -> Alcotest.failf "%s: recovery failed: %s" label msg
  | Ok r ->
      Fun.protect ~finally:(fun () -> Store.close r.Store.store) @@ fun () ->
      expect_clean ~label r;
      let allocs = List.map snd r.Store.accepted in
      List.map
        (fun (a : Allocation.t) ->
          match a.Allocation.profile with
          | None ->
              Alcotest.failf "%s: malleable accept %d recovered without a profile" label
                a.Allocation.request.Request.id
          | Some p ->
              if Rate_profile.integral p <> a.Allocation.request.Request.volume then
                Alcotest.failf "%s: recovered profile of %d does not close bitwise" label
                  a.Allocation.request.Request.id;
              (a.Allocation.request.Request.id, Rate_profile.to_triples p))
        allocs
      |> List.sort compare

let test_malleable_crash_matrix () =
  let requests = workload_of_seed ~n:30 5 in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let scratch = Filename.concat tmp "carved" in
      ignore (malleable_journal_run ~dir:src requests);
      let events =
        match Store.recover ~config:(store_config ()) ~dir:src () with
        | Error msg -> Alcotest.failf "uncarved journal does not recover: %s" msg
        | Ok r ->
            Store.close r.Store.store;
            r.Store.journal.Replay.events
      in
      let boundaries, total = Torn.record_boundaries ~dir:src in
      (* carves are keyed by record; a record holds one event, or an
         arrival and its decision *)
      let records = record_events src in
      Alcotest.(check int) "one boundary per record" (List.length records)
        (List.length boundaries);
      if List.concat records <> events then
        Alcotest.fail "the records do not expand to the recovered events";
      let boundary_of record =
        match List.nth_opt boundaries record with Some b -> b | None -> total
      in
      (* broad matrix: every clean and torn cut recovers to an auditable
         profiled state (or fails cleanly inside the capacity prefix) *)
      List.iteri
        (fun kept boundary ->
          let label = Printf.sprintf "malleable cut at record %d" kept in
          let dir = carve ~src ~scratch boundary in
          if kept < n_prefix then expect_prefix_error ~label ~dir
          else ignore (malleable_recovered_state ~label ~dir);
          let next = boundary_of (kept + 1) in
          if next > boundary + 1 then begin
            let label = Printf.sprintf "malleable torn inside record %d" kept in
            let dir = carve ~src ~scratch (boundary + ((next - boundary) / 2)) in
            if kept < n_prefix then expect_prefix_error ~label ~dir
            else ignore (malleable_recovered_state ~label ~dir)
          end)
        boundaries;
      (* targeted both-or-neither: for every Reshape that revised pending
         profiles, a mid-record carve equals the pre state bit for bit
         and the post state holds the admit AND every revision *)
      let checked = ref 0 in
      List.iteri
        (fun record evs ->
          List.iter
            (function
              | Event.Reshape { id; profile; revised; _ } when Array.length revised > 0 ->
                  incr checked;
                  let before_b = boundary_of record and after_b = boundary_of (record + 1) in
                  let label = Printf.sprintf "reshape record %d (admit %d)" record id in
                  let pre =
                    malleable_recovered_state ~label:(label ^ ", pre")
                      ~dir:(carve ~src ~scratch before_b)
                  in
                  let mid =
                    malleable_recovered_state ~label:(label ^ ", torn")
                      ~dir:(carve ~src ~scratch (before_b + ((after_b - before_b) / 2)))
                  in
                  if mid <> pre then
                    Alcotest.failf "%s: torn reshape left a partial state behind" label;
                  let post =
                    malleable_recovered_state ~label:(label ^ ", post")
                      ~dir:(carve ~src ~scratch after_b)
                  in
                  (match List.assoc_opt id post with
                  | Some got when got = profile -> ()
                  | Some _ -> Alcotest.failf "%s: admitted profile differs from the record" label
                  | None -> Alcotest.failf "%s: admit missing after a committed reshape" label);
                  Array.iter
                    (fun (rid, triples) ->
                      if not (List.mem_assoc rid pre) then
                        Alcotest.failf "%s: revision targets %d, which was never admitted" label rid;
                      match List.assoc_opt rid post with
                      | Some got when got = triples -> ()
                      | Some _ ->
                          Alcotest.failf "%s: revision of %d not applied by the replay" label rid
                      | None -> Alcotest.failf "%s: revised transfer %d vanished" label rid)
                    revised
              | _ -> ())
            evs)
        records;
      Alcotest.(check bool) "workload produced revising reshapes" true (!checked > 0))

(* --- pair records under the crash matrix ---

   A pair record is the arrival and the decision together: a crash at any
   byte inside it loses both, so recovery sees exactly the records before
   it, and the resumed run re-emits the arrival and re-decides. *)

let test_pair_record_every_byte () =
  let requests = workload_of_seed ~n:30 3 in
  let expected = baseline requests in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let scratch = Filename.concat tmp "carved" in
      ignore (journal_run ~batch:4 ~dir:src requests);
      let boundaries, total = Torn.record_boundaries ~dir:src in
      let bound k = match List.nth_opt boundaries k with Some b -> b | None -> total in
      let records = record_events src in
      let first pred =
        let rec go k = function
          | [] -> Alcotest.fail "journal holds no such pair"
          | evs :: rest -> if pred evs then k else go (k + 1) rest
        in
        go 0 records
      in
      let admitted = first (function [ Event.Arrival _; Event.Accept _ ] -> true | _ -> false) in
      let refused = first (function [ Event.Arrival _; Event.Reject _ ] -> true | _ -> false) in
      List.iter
        (fun k ->
          let before = List.concat (List.filteri (fun i _ -> i < k) records) in
          for cut = bound k to bound (k + 1) - 1 do
            let label = Printf.sprintf "pair record %d cut at byte %d" k (cut - bound k) in
            let dir = carve ~src ~scratch cut in
            let r = recover_exn ~label dir in
            if r.Store.journal.Replay.events <> before then
              Alcotest.failf "%s: recovered more or less than the records before it" label;
            resume_and_check ~label ~expected ~dir requests
          done)
        [ admitted; refused ])

(* The same for a malleable pair whose Reshape revises pending
   bookings: every cut inside it recovers the state before it. *)
let test_reshape_pair_every_byte () =
  let requests = workload_of_seed ~n:30 5 in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let scratch = Filename.concat tmp "carved" in
      ignore (malleable_journal_run ~dir:src requests);
      let boundaries, total = Torn.record_boundaries ~dir:src in
      let bound k = match List.nth_opt boundaries k with Some b -> b | None -> total in
      let rec find k = function
        | [] -> Alcotest.fail "journal holds no revising reshape pair"
        | [ Event.Arrival _; Event.Reshape { revised; _ } ] :: _ when Array.length revised > 0 -> k
        | _ :: rest -> find (k + 1) rest
      in
      let k = find 0 (record_events src) in
      let pre =
        malleable_recovered_state ~label:"before the pair" ~dir:(carve ~src ~scratch (bound k))
      in
      for cut = bound k + 1 to bound (k + 1) - 1 do
        let label = Printf.sprintf "reshape pair %d cut at byte %d" k (cut - bound k) in
        if malleable_recovered_state ~label ~dir:(carve ~src ~scratch cut) <> pre then
          Alcotest.failf "%s: a torn pair left a partial state behind" label
      done;
      let post =
        malleable_recovered_state ~label:"after the pair" ~dir:(carve ~src ~scratch (bound (k + 1)))
      in
      Alcotest.(check bool) "the whole pair books" true (post <> pre))

(* --- the pair rule at the store ---

   An arrival pairs only with the decision right after it that repeats
   its id and time (and request fields, for an Accept); anything else,
   and a sync, writes it alone.  Either way recovery gives back the
   events in the order they were logged. *)

let test_pair_rule_fallback () =
  with_tmpdir (fun dir ->
      let store = Store.create ~config:(store_config ~batch:1000 ()) ~dir (fabric2 ()) in
      let arrival id time =
        Event.Arrival
          { time; seq = id; id; ingress = 0; egress = 1; volume = 10.; ts = time;
            tf = time +. 10.; max_rate = 5. }
      in
      let accept ?(volume = 10.) id time =
        Event.Accept
          { time; id; ingress = 0; egress = 1; volume; ts = time; tf = time +. 10.; max_rate = 5.;
            bw = 1.; sigma = time; shard = None }
      in
      let reject id time =
        Event.Reject { time; id; reason = "port-saturated"; port = None; headroom = None; shard = None }
      in
      let records () = Store.records store in
      let case label events ~records:n =
        let before = records () in
        List.iter (Store.log store) events;
        Store.sync store;
        Alcotest.(check int) label n (records () - before)
      in
      case "same id and time: one record" [ arrival 1 1.; accept 1 1. ] ~records:1;
      case "refusal, same id and time: one record" [ arrival 2 2.; reject 2 2. ] ~records:1;
      case "time differs: two records" [ arrival 3 3.; accept 3 3.5 ] ~records:2;
      case "id differs: two records" [ arrival 4 4.; reject 40 4. ] ~records:2;
      case "request field differs: two records" [ arrival 5 5.; accept ~volume:11. 5 5. ]
        ~records:2;
      case "arrival after arrival: the first alone" [ arrival 6 6.; arrival 7 6.; accept 7 6. ]
        ~records:2;
      case "a preempt between: three records"
        [ arrival 8 8.; Event.Preempt { time = 8.; id = 1; bw = 1.; shard = None }; reject 8 8. ]
        ~records:3;
      (* a sync writes the held arrival, durably *)
      Store.log store (arrival 9 9.);
      let held = records () in
      Store.sync store;
      Alcotest.(check int) "sync writes the held arrival" (held + 1) (records ());
      Alcotest.(check int) "and it is on disk" (records ()) (Wal.scan ~dir).Wal.valid;
      Store.log store (reject 9 9.);
      Store.log store (arrival 10 10.);
      Store.close store;
      let r = recover_exn ~label:"fallback journal" dir in
      let logged = List.filteri (fun i _ -> i >= n_prefix) r.Store.journal.Replay.events in
      let expected =
        [ arrival 1 1.; accept 1 1.; arrival 2 2.; reject 2 2.; arrival 3 3.; accept 3 3.5;
          arrival 4 4.; reject 40 4.; arrival 5 5.; accept ~volume:11. 5 5.; arrival 6 6.;
          arrival 7 6.; accept 7 6.; arrival 8 8.;
          Event.Preempt { time = 8.; id = 1; bw = 1.; shard = None }; reject 8 8.;
          arrival 9 9.; reject 9 9.; arrival 10 10. ]
      in
      if logged <> expected then Alcotest.fail "recovered events differ from the logged ones";
      Alcotest.(check int) "close writes the last held arrival" 16
        (Store.records r.Store.store - n_prefix))

(* --- the pair journal ---

   [Store.log] books an event's ledger effects and appends its record;
   an arrival waits for the decision after it and shares its record.
   Five journals pin that down, each returning the events it gave
   [Store.log] after the capacity prefix:
   - GREEDY on an [Online] controller, with cancels (Preempt records);
   - the daemon's admission kernel, with cancels;
   - WINDOW, whose batched arrivals stay records of their own;
   - a malleable run whose Reshape records revise pending bookings;
   - the sharded engine, which logs straight into the store. *)

module Admission = Gridbw_serve.Admission
module Protocol = Gridbw_serve.Protocol
module Online = Gridbw_core.Online
module Runtime = Gridbw_core.Runtime

(* An obs ctx whose trace sink records every event it is handed. *)
let recording () =
  let seen = ref [] in
  let sink = { Gridbw_obs.Sink.emit = (fun e -> seen := e :: !seen); flush = ignore } in
  (Obs.create ~sink (), fun () -> List.rev !seen)

let journal_store ~dir = Store.create ~config:(store_config ~batch:4 ()) ~dir (fabric2 ())

let arrival_of ~time ~seq (r : Request.t) =
  Event.Arrival
    { time; seq; id = r.Request.id; ingress = r.Request.ingress; egress = r.Request.egress;
      volume = r.Request.volume; ts = r.Request.ts; tf = r.Request.tf;
      max_rate = r.Request.max_rate }

(* Every third admit is cancelled right after it is granted.  Returns the
   events logged and the live controller. *)
let greedy_with_cancels ~dir =
  let store = journal_store ~dir in
  let obs, seen = recording () in
  let ctx = Runtime.make ~obs:(Store.attach store obs) () in
  let ctl = Online.create (fabric2 ()) in
  let requests =
    List.filter (fun (r : Request.t) -> r.Request.ts >= 0.) (workload_of_seed ~n:60 7)
  in
  List.iteri
    (fun seq (r : Request.t) ->
      Obs.event ctx.Runtime.obs (fun () -> arrival_of ~time:r.Request.ts ~seq r);
      match Online.try_admit ~ctx ctl policy r ~at:r.Request.ts with
      | Types.Accepted a when seq mod 3 = 0 ->
          if not (Online.preempt ~ctx ctl a) then Alcotest.fail "cancel of a fresh grant failed"
      | _ -> ())
    (Flexible.arrival_order requests);
  Store.close store;
  (seen (), ctl)

let greedy_cancels_run ~dir = fst (greedy_with_cancels ~dir)

let daemon_cancels_run ~dir =
  let fabric = fabric2 () in
  let store = journal_store ~dir in
  let obs, seen = recording () in
  let t = Admission.create ~obs ~store ~policy fabric in
  (* requests 0, 3, 6, ... are cancelled right after they are admitted,
     so Preempt records sit between later decisions *)
  let cancelled = ref 0 in
  List.iteri
    (fun i (r : Request.t) ->
      match
        Admission.handle t
          (Protocol.Admit
             { id = r.Request.id; ingress = r.Request.ingress; egress = r.Request.egress;
               volume = r.Request.volume; ts = Float.max 0. r.Request.ts; tf = r.Request.tf;
               max_rate = r.Request.max_rate })
      with
      | Protocol.Admitted { id; _ } when i mod 3 = 0 -> (
          match Admission.handle t (Protocol.Cancel { id }) with
          | Protocol.Cancel_ok _ -> incr cancelled
          | r -> Alcotest.failf "cancel %d failed: %a" id Protocol.pp_response r)
      | _ -> ())
    (workload_of_seed ~n:80 3);
  Alcotest.(check bool) "workload admits and cancels" true (!cancelled >= 3);
  Admission.close t;
  seen ()

let window_run ~dir =
  let store = journal_store ~dir in
  let obs, seen = recording () in
  ignore
    (Flexible.window ~ctx:(Runtime.make ~obs:(Store.attach store obs) ()) (fabric2 ()) policy ~step:10.
       (workload_of_seed ~n:60 11));
  Store.close store;
  seen ()

let malleable_reshape_run ~dir =
  let obs, seen = recording () in
  ignore (malleable_journal_run ~obs ~dir (workload_of_seed ~n:30 5));
  seen ()

(* The sharded engine logs straight into the store; what it logs is
   rebuilt from its decisions: the Arrival it stamps with the decision's
   time and its own sequence number, the decision itself, and a Preempt
   per successful cancel, at the engine clock and on the deciding shard
   of the booking. *)
let sharded_run ~dir =
  let store = journal_store ~dir in
  let engine = Shard_engine.create ~journal:store ~spawn:false ~shards:2 policy (fabric2 ()) in
  let obs, decisions = recording () in
  let logged = ref [] and booked = ref [] and seq = ref 0 in
  List.iteri
    (fun i (r : Request.t) ->
      let decision = Shard_engine.try_admit ~obs engine r in
      let ev = List.hd (List.rev (decisions ())) in
      logged := ev :: arrival_of ~time:(Event.time ev) ~seq:!seq r :: !logged;
      incr seq;
      (match (decision, ev) with
      | Types.Accepted a, Event.Accept { shard; _ } -> booked := (a, shard) :: !booked
      | _ -> ());
      if i mod 5 = 2 then
        match !booked with
        | (a, shard) :: rest ->
            if Shard_engine.cancel engine a then
              logged :=
                Event.Preempt
                  { time = Shard_engine.now engine; id = a.Allocation.request.Request.id;
                    bw = a.Allocation.bw; shard }
                :: !logged;
            booked := rest
        | [] -> ())
    (sharded_workload ());
  Shard_engine.flush engine;
  Store.close store;
  List.rev !logged

let journals =
  [
    ("greedy with cancels", greedy_cancels_run);
    ("daemon with cancels", daemon_cancels_run);
    ("window", window_run);
    ("malleable reshapes", malleable_reshape_run);
    ("sharded engine", sharded_run);
  ]

(* Run [journal] into [dir] and return the events [Store.log] was given:
   the capacity prefix [Store.create] logs itself, then every event the
   journal logged that is admission state. *)
let journaled_events ~journal ~dir =
  let given = journal ~dir in
  let prefix =
    List.filteri
      (fun i _ -> i < n_prefix)
      (recover_exn ~label:"journal" dir).Store.journal.Replay.events
  in
  List.iter
    (function Event.Capacity _ -> () | _ -> Alcotest.fail "prefix holds a non-capacity event")
    prefix;
  prefix @ List.filter (function Event.Dispatch _ -> false | _ -> true) given

let wal_image dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:"wal-" f)
  |> List.sort compare
  |> List.map (fun f ->
         let ic = open_in_bin (Filename.concat dir f) in
         Fun.protect
           ~finally:(fun () -> close_in ic)
           (fun () -> really_input_string ic (in_channel_length ic)))
  |> String.concat ""

(* The record stream the pair rule makes of [events], framed: an arrival
   and the decision after it share a record when they pair; every other
   event is a record of its own.  Returns the stream and its pair count. *)
let pair_rule_image events =
  let b = Buffer.create 4096 and body = Buffer.create 256 in
  let frame () = Gridbw_wire.Frame.add b ~tag:Wal.record_tag (Buffer.contents body) in
  let single ev =
    Buffer.clear body;
    Gridbw_obs.Event_codec.Binary.encode_body body ev;
    frame ()
  in
  let rec go pairs = function
    | (Event.Arrival _ as arrival) :: ev :: rest ->
        Buffer.clear body;
        if Gridbw_obs.Event_codec.Binary.encode_pair body ~arrival ev then begin
          frame ();
          go (pairs + 1) rest
        end
        else begin
          single arrival;
          go pairs (ev :: rest)
        end
    | ev :: rest ->
        single ev;
        go pairs rest
    | [] -> pairs
  in
  let pairs = go 0 events in
  (Buffer.contents b, pairs)

let decisions_of events =
  List.length
    (List.filter
       (function Event.Accept _ | Event.Reject _ | Event.Reshape _ -> true | _ -> false)
       events)

let test_wal_is_pair_records () =
  List.iter
    (fun (label, journal) ->
      with_tmpdir (fun dir ->
          let events = journaled_events ~journal ~dir in
          let expected, pairs = pair_rule_image events in
          let records = (Wal.scan ~dir).Wal.valid in
          Alcotest.(check int) (label ^ ": a pair record per pair") (List.length events - pairs)
            records;
          (* WINDOW decides a batch after all of its arrivals; every other
             journal decides each request right after its arrival *)
          if label = "window" then
            Alcotest.(check bool) (label ^ ": standalone arrivals remain") true
              (pairs < decisions_of events)
          else Alcotest.(check int) (label ^ ": every decision pairs") (decisions_of events) pairs;
          if wal_image dir <> expected then
            Alcotest.failf "%s: the WAL is not the pair-rule records, byte for byte" label))
    journals

(* Recovery expands every pair back: the history equals what the journal
   gave [Store.log]. *)
let test_recovered_events_are_logged_events () =
  List.iter
    (fun (label, journal) ->
      with_tmpdir (fun dir ->
          let events = journaled_events ~journal ~dir in
          let r = recover_exn ~label dir in
          if r.Store.journal.Replay.events <> events then
            Alcotest.failf "%s: recovered events differ from the logged ones" label))
    journals

(* The views straight from the event list, the way the store kept them
   live before: a Reshape revision rewrites every booking of its id. *)
let views_of_events events =
  let decided = Hashtbl.create 64 in
  let booked = ref [] in
  let id_of (a : Allocation.t) = a.Allocation.request.Request.id in
  List.iter
    (function
      | Event.Reject { id; _ } -> Hashtbl.replace decided id ()
      | Event.Accept { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma; _ } ->
          Hashtbl.replace decided id ();
          let request = Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate in
          booked := (time, Allocation.make ~request ~bw ~sigma) :: !booked
      | Event.Reshape { time; id; ingress; egress; volume; ts; tf; max_rate; profile; revised; _ }
        ->
          Array.iter
            (fun (rid, segs) ->
              match List.find_opt (fun (_, a) -> id_of a = rid) !booked with
              | None -> ()
              | Some (_, old) ->
                  let a =
                    Allocation.of_profile ~request:old.Allocation.request
                      (Rate_profile.of_triples segs)
                  in
                  booked := List.map (fun (tm, b) -> if id_of b = rid then (tm, a) else (tm, b)) !booked)
            revised;
          Hashtbl.replace decided id ();
          let request = Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate in
          booked :=
            (time, Allocation.of_profile ~request (Rate_profile.of_triples profile)) :: !booked
      | _ -> ())
    events;
  (List.rev !booked, Hashtbl.mem decided)

let booking_row (time, (a : Allocation.t)) =
  let bits = Int64.bits_of_float in
  ( bits time,
    a.Allocation.request,
    (bits a.Allocation.bw, bits a.Allocation.sigma, bits a.Allocation.tau),
    Option.map Rate_profile.to_triples a.Allocation.profile )

let test_recovered_views_match_events () =
  List.iter
    (fun (label, journal) ->
      with_tmpdir (fun dir ->
          ignore (journal ~dir);
          let r = recover_exn ~label dir in
          let accepted, decided = views_of_events r.Store.journal.Replay.events in
          if List.map booking_row r.Store.accepted <> List.map booking_row accepted then
            Alcotest.failf "%s: recovered bookings differ from the event history" label;
          let ids =
            List.filter_map
              (function
                | Event.Arrival { id; _ } | Event.Reject { id; _ } | Event.Accept { id; _ }
                | Event.Reshape { id; _ } -> Some id
                | _ -> None)
              r.Store.journal.Replay.events
          in
          let top = List.fold_left Int.max 0 ids + 3 in
          for id = -1 to top do
            if r.Store.decided id <> decided id then
              Alcotest.failf "%s: decided differs on request %d" label id
          done))
    journals

(* The one replay: feeding a recovered journal through [Online.replay]
   rebuilds the live controller bit for bit, cancels included — the
   counters of every port, the held allocations and the clock. *)
let test_replay_matches_live () =
  with_tmpdir (fun dir ->
      let events, live = greedy_with_cancels ~dir in
      Alcotest.(check bool) "the run cancelled bookings" true
        (List.exists (function Event.Preempt _ -> true | _ -> false) events);
      let r = recover_exn ~label:"greedy with cancels" dir in
      Store.close r.Store.store;
      let replayed = Online.create r.Store.journal.Replay.fabric in
      List.iter (fun ev -> ignore (Online.replay replayed ev)) r.Store.journal.Replay.events;
      let fabric = fabric2 () in
      let ports =
        List.init (Gridbw_topology.Fabric.ingress_count fabric) (fun i -> Port.Ingress i)
        @ List.init (Gridbw_topology.Fabric.egress_count fabric) (fun e -> Port.Egress e)
      in
      let bits = Int64.bits_of_float in
      List.iter
        (fun p ->
          if bits (Online.used live p) <> bits (Online.used replayed p) then
            Alcotest.failf "%a: live %h, replayed %h" Port.pp p (Online.used live p)
              (Online.used replayed p))
        ports;
      Alcotest.(check int) "held allocations" (Online.active_count live)
        (Online.active_count replayed);
      Alcotest.(check int64) "clock" (bits (Online.now live)) (bits (Online.now replayed)))

(* --- pins: what a journal reads as ---

   Digests of every view of the five journals: the recovered bookings
   (floats as bit patterns), the decided ids, the survivors, and the
   stdout of [gridbw recover] in text form (below its provenance line,
   which names the directory) and in [--json] form, exit status
   included.  A change to how a journal is read moves them. *)

let alloc_row (a : Allocation.t) =
  let q = a.Allocation.request in
  Printf.sprintf "%d %d>%d %h %h %h %h | %h %h %h%s" q.Request.id q.Request.ingress
    q.Request.egress q.Request.volume q.Request.ts q.Request.tf q.Request.max_rate a.Allocation.bw
    a.Allocation.sigma a.Allocation.tau
    (match a.Allocation.profile with
    | None -> ""
    | Some p ->
        String.concat ""
          (List.map (fun (f, u, r) -> Printf.sprintf " [%h %h %h]" f u r)
             (Array.to_list (Rate_profile.to_triples p))))

let digest_lines lines = Digest.to_hex (Digest.string (String.concat "\n" lines))

let journal_views ~label dir =
  let r = recover_exn ~label dir in
  let ids =
    List.filter_map
      (function
        | Event.Arrival { id; _ } | Event.Reject { id; _ } | Event.Accept { id; _ }
        | Event.Reshape { id; _ } | Event.Preempt { id; _ } -> Some id
        | _ -> None)
      r.Store.journal.Replay.events
  in
  let decided =
    List.filter (fun id -> r.Store.decided id)
      (List.init (List.fold_left Int.max 0 ids + 4) (fun i -> i - 1))
  in
  let cli args =
    let code, out = gridbw (args @ [ dir ]) in
    Printf.sprintf "exit %d\n%s" code out
  in
  let below_provenance s =
    match String.index_opt s '\n' with
    | None -> s
    | Some i -> (
        (* keep the exit line, drop the provenance line after it *)
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        match String.index_opt rest '\n' with
        | None -> s
        | Some j -> String.sub s 0 (i + 1) ^ String.sub rest (j + 1) (String.length rest - j - 1))
  in
  [
    ( "accepted",
      digest_lines
        (List.map (fun (t, a) -> Printf.sprintf "%h %s" t (alloc_row a)) r.Store.accepted) );
    ("decided", digest_lines (List.map string_of_int decided));
    ("survivors", digest_lines (List.map alloc_row r.Store.journal.Replay.survivors));
    ("recover", digest_lines [ below_provenance (cli [ "recover" ]) ]);
    ("recover --json", digest_lines [ cli [ "recover"; "--json" ] ]);
  ]

let journal_pins =
  [
    ( "greedy with cancels",
      [
        ("accepted", "7f0f2644016c9f00e9f9655656fbf3cd");
        ("decided", "92a3e70b255fc91a8fabf8295a51bd39");
        ("survivors", "acbb78bef9871863da77fe771da13ff9");
        ("recover", "47d7f30eea43229d58fefe5c3c9e7135");
        ("recover --json", "9451b4f5a2c805272effc54f43c7e3fc");
      ] );
    ( "daemon with cancels",
      [
        ("accepted", "aa8178df2af328f6d37ce109ea2165e2");
        ("decided", "37a27964c9263707806aaba585d7adcb");
        ("survivors", "9daaf9934ab4bf7490d91ec4dc140fc3");
        ("recover", "ff9d48af3c3df027063bb3fa3304b9a9");
        ("recover --json", "6fea8b3729643550db15a7dd7ba3d4ac");
      ] );
    ( "window",
      [
        ("accepted", "974fa568165767ec7982895b219b0161");
        ("decided", "92a3e70b255fc91a8fabf8295a51bd39");
        ("survivors", "c239cc5aa9f9539662968ee67e40303b");
        ("recover", "ed351bb3d937ce9168171e37d88c2e6f");
        ("recover --json", "6638e7ea52e14a1ba64071e9a002fdc1");
      ] );
    ( "malleable reshapes",
      [
        ("accepted", "d8b30489b7c009ab87e793c8d29b829e");
        ("decided", "6dc2fa98b4c4c83c0432aaad25b7ad76");
        ("survivors", "00647e7a8d65abffa781d7addf7febb9");
        ("recover", "6ee68ef5ae99ebdb0aa261197a02b611");
        ("recover --json", "c8721cc1208b0a6048f53c933076960a");
      ] );
    ( "sharded engine",
      [
        ("accepted", "a39207b39de6aeda85d7f4c817616d5d");
        ("decided", "92463ae2a1946aa9bf4d69e3532dcd73");
        ("survivors", "63b3eb2eb71852329e0dcecb1cd0d2cd");
        ("recover", "e055bc0211746c5eedf55b6d37c5c892");
        ("recover --json", "3889dc0a9442578deb36c5b964f4e36e");
      ] );
  ]

let test_journal_pins () =
  let moved =
    List.concat_map
      (fun (label, journal) ->
        with_tmpdir (fun dir ->
            ignore (journal ~dir);
            let got = journal_views ~label dir in
            List.filter_map
              (fun (view, pin) ->
                let d = List.assoc view got in
                if d = pin then None
                else Some (Printf.sprintf "%s: %s reads as %s, pinned %s" label view d pin))
              (List.assoc label journal_pins)))
      journals
  in
  if moved <> [] then Alcotest.fail (String.concat "\n" moved)

(* The live store keeps nothing per booking: ten times the admits of
   the same seeded GREEDY journal leave it the same size, give or take
   its reused buffers. *)
let test_live_store_keeps_no_history () =
  let obs, seen = recording () in
  ignore
    (Flexible.greedy ~ctx:(Runtime.make ~obs ()) (fabric2 ()) policy
       (workload_of_seed ~n:20_000 29));
  let events = seen () in
  (* the events up to the [n]-th decision *)
  let prefix n =
    let rec go k acc = function
      | [] -> List.rev acc
      | (Event.Accept _ | Event.Reject _) as ev :: rest ->
          if k + 1 = n then List.rev (ev :: acc) else go (k + 1) (ev :: acc) rest
      | ev :: rest -> go k (ev :: acc) rest
    in
    go 0 [] events
  in
  let words n =
    with_tmpdir (fun dir ->
        let evs = prefix n in
        Alcotest.(check int) "admits decided" n (decisions_of evs);
        let store = Store.create ~config:(store_config ~batch:64 ()) ~dir (fabric2 ()) in
        List.iter (Store.log store) evs;
        Store.sync store;
        let w = Obj.reachable_words (Obj.repr store) in
        Store.close store;
        (w, List.length (List.filter (function Event.Accept _ -> true | _ -> false) evs)))
  in
  let small, booked_small = words 2_000 and large, booked_large = words 20_000 in
  Alcotest.(check bool) "the longer journal books thousands more" true
    (booked_large - booked_small > 2_000);
  if abs (large - small) > 64 then
    Alcotest.failf "the store holds %d words after 2k admits, %d after 20k" small large

(* --- stores written with snapshot images ---

   Older versions also wrote [snap-<cursor>.bin] images of a mirror
   ledger beside the WAL, kept the newest two, and could leave a
   [.snap-*.tmp] behind when killed mid-write.  Recovery reads the WAL
   alone, so such a store, torn tail included, reads exactly like the
   same store without those files. *)

(* An image in the older format: a frame tagged 0x05 holding the cursor,
   then per side its port count and per port its (from, until, level)
   segments, floats as IEEE bits.  A port's segments run between its
   consecutive breakpoints at the level the first one opens, zero levels
   left out, as the older versions read them off their mirror ledger. *)
let legacy_image ~cursor (ingress, egress) =
  let p = Buffer.create 256 in
  let side ports =
    Buffer.add_int32_le p (Int32.of_int (Array.length ports));
    Array.iter
      (fun prof ->
        let rec segments acc = function
          | from_ :: (until :: _ as rest) ->
              let level = Profile_ref.usage_at prof from_ in
              segments (if level = 0.0 then acc else (from_, until, level) :: acc) rest
          | _ -> List.rev acc
        in
        let segs = segments [] (Profile_ref.breakpoints prof) in
        Buffer.add_int32_le p (Int32.of_int (List.length segs));
        List.iter
          (fun (from_, until, level) ->
            List.iter (fun f -> Buffer.add_int64_le p (Int64.bits_of_float f)) [ from_; until; level ])
          segs)
      ports
  in
  Buffer.add_int64_le p (Int64.of_int cursor);
  side ingress;
  side egress;
  let b = Buffer.create 256 in
  Gridbw_wire.Frame.add b ~tag:0x05 (Buffer.contents p);
  Buffer.contents b

(* What an older store could hold beside its WAL: images at and beyond
   the log's end, a damaged one, one of the JSONL format before that,
   and the temps of interrupted writes. *)
let plant_legacy_files ~dir ~ports ~records =
  let write f data =
    Out_channel.with_open_bin (Filename.concat dir f) (fun oc -> output_string oc data)
  in
  let image = legacy_image ~cursor:records ports in
  write (Printf.sprintf "snap-%010d.bin" records) image;
  write
    (Printf.sprintf "snap-%010d.bin" (records + 50))
    (legacy_image ~cursor:(records + 50) ports);
  write (Printf.sprintf "snap-%010d.bin" (records / 2)) (String.sub image 0 (String.length image / 2));
  write (Printf.sprintf "snap-%010d.json" (records + 60)) {|{"snap":1,"cursor":0,"events":0}|};
  write (Printf.sprintf ".snap-%010d.bin.tmp" (records + 1)) "half a snapshot";
  write ".snap-0000000009.json.tmp" "half a snapshot"

let legacy_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"snap-" f || String.starts_with ~prefix:".snap-" f)
  |> List.sort compare

(* The journal's commitments, in the order it hands them out. *)
let commitments (j : Replay.t) =
  let acc = ref [] in
  Replay.iter_commitments j.Replay.bookings (fun q f u bw -> acc := (q, (f, u, bw)) :: !acc);
  List.rev !acc

(* The same, request ids and floats as IEEE bits. *)
let commitment_rows (r : Store.recovered) =
  List.map
    (fun ((q : Request.t), (f, u, bw)) ->
      (q.Request.id, List.map Int64.bits_of_float [ f; u; bw ]))
    (commitments r.Store.journal)

(* The per-port usage of the mirror ledger an older version imaged:
   every commitment of the journal, booked. *)
let image_ports (r : Store.recovered) =
  let fabric = r.Store.journal.Replay.fabric in
  let side n = Array.make n Profile_ref.empty in
  let ingress = side (Gridbw_topology.Fabric.ingress_count fabric)
  and egress = side (Gridbw_topology.Fabric.egress_count fabric) in
  List.iter
    (fun ((q : Request.t), (from_, until, bw)) ->
      if from_ <> until then begin
        let book ports i = ports.(i) <- Profile_ref.add ports.(i) ~from_ ~until bw in
        book ingress q.Request.ingress;
        book egress q.Request.egress
      end)
    (commitments r.Store.journal);
  (ingress, egress)

(* A store written by [journal], its last record torn in half as a kill
   mid-append leaves it, beside a copy that also holds the older files
   [plant] writes: both recover to the same event history, torn bytes,
   record count and commitments, bit for bit, and the older files are left as
   they were.  Returns the two directories and the records the store held
   before the tear. *)
let recover_beside_legacy ~label ~tmp ~journal ~plant =
  let bare = Filename.concat tmp "bare" and legacy = Filename.concat tmp "legacy" in
  ignore (journal ~dir:bare);
  let whole = recover_exn ~label bare in
  let records = Store.records whole.Store.store in
  let boundaries, total = Torn.record_boundaries ~dir:bare in
  let last = List.nth boundaries (List.length boundaries - 1) in
  Torn.truncate_at ~dir:bare (last + ((total - last) / 2));
  Torn.copy_store ~src:bare ~dst:legacy;
  plant ~dir:legacy ~ports:(image_ports whole) ~records;
  let planted = legacy_files legacy in
  Alcotest.(check bool) (label ^ ": older files planted") true (planted <> []);
  let a = recover_exn ~label bare and b = recover_exn ~label:(label ^ ", legacy") legacy in
  if a.Store.journal.Replay.events <> b.Store.journal.Replay.events then
    Alcotest.failf "%s: event histories differ" label;
  Alcotest.(check bool) (label ^ ": a torn tail was dropped") true (a.Store.truncated_bytes > 0);
  Alcotest.(check int) (label ^ ": torn bytes") a.Store.truncated_bytes b.Store.truncated_bytes;
  Alcotest.(check int) (label ^ ": records") (Store.records a.Store.store)
    (Store.records b.Store.store);
  if commitment_rows a <> commitment_rows b then
    Alcotest.failf "%s: recovered commitments differ" label;
  Alcotest.(check (list string)) (label ^ ": older files left as they were") planted
    (legacy_files legacy);
  (bare, legacy, records)

let greedy_journal seed =
  let requests = workload_of_seed ~n:30 seed in
  fun ~dir -> journal_run ~batch:4 ~dir requests

let write_in dir f data =
  Out_channel.with_open_bin (Filename.concat dir f) (fun oc -> output_string oc data)

(* A store an older version wrote, images of the newest two cursors
   beside a WAL whose tail runs past them and is torn: GREEDY resumes on
   it to the uninterrupted run's summary, and still does when the newest
   image is garbage. *)
let test_snapshot_recovery () =
  let requests = workload_of_seed ~n:30 17 in
  let expected = baseline requests in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let scratch = Filename.concat tmp "carved" in
      ignore (journal_run ~batch:4 ~dir:src requests);
      let whole = recover_exn ~label:"written" src in
      let records = Store.records whole.Store.store in
      let ports = image_ports whole in
      let cursors = [ records / 3; 2 * records / 3 ] in
      List.iter
        (fun c -> write_in src (Printf.sprintf "snap-%010d.bin" c) (legacy_image ~cursor:c ports))
        cursors;
      let _, total = Torn.record_boundaries ~dir:src in
      let dir = carve ~src ~scratch (total - 7) in
      let images = legacy_files dir in
      Alcotest.(check int) "both images carried over" 2 (List.length images);
      resume_and_check ~label:"snapshot + WAL tail" ~expected ~dir requests;
      Alcotest.(check (list string)) "images left as they were" images (legacy_files dir);
      let dir = carve ~src ~scratch (total - 7) in
      write_in dir (Printf.sprintf "snap-%010d.bin" (List.nth cursors 1)) "garbage";
      resume_and_check ~label:"garbage newest image" ~expected ~dir requests)

(* Every journal, torn, with every kind of older file beside it: the
   journal views and both forms of [gridbw recover] are those of the
   same store without them. *)
let test_snapshot_matches_wal_only () =
  List.iter
    (fun (label, journal) ->
      with_tmpdir (fun tmp ->
          let bare, legacy, _ =
            recover_beside_legacy ~label ~tmp ~journal ~plant:plant_legacy_files
          in
          (* bookings, decided ids, survivors and both forms of [gridbw recover] *)
          List.iter2
            (fun (view, x) (_, y) ->
              if x <> y then Alcotest.failf "%s: %s differs with the older files" label view)
            (journal_views ~label bare) (journal_views ~label legacy)))
    journals

(* What a kill between creating a snapshot's temp file and its rename
   left behind. *)
let test_stale_temp_ignored () =
  with_tmpdir (fun tmp ->
      ignore
        (recover_beside_legacy ~label:"stale temps" ~tmp ~journal:(greedy_journal 17)
           ~plant:(fun ~dir ~ports:_ ~records ->
             write_in dir (Printf.sprintf ".snap-%010d.bin.tmp" (records / 2)) "half a snapshot";
             write_in dir ".snap-0000000009.json.tmp" "half a snapshot")))

(* Images at and beyond the end of a log that a tear then shortened
   describe a history that no longer exists: recovery never reads them,
   and a different history written past their cursors recovers as it
   does without them. *)
let test_outran_snapshot_ignored () =
  with_tmpdir (fun tmp ->
      let bare, legacy, records =
        recover_beside_legacy ~label:"outrun images" ~tmp ~journal:(greedy_journal 17)
          ~plant:(fun ~dir ~ports ~records ->
            List.iter
              (fun c ->
                write_in dir (Printf.sprintf "snap-%010d.bin" c) (legacy_image ~cursor:c ports))
              [ records; records + 50 ])
      in
      let rewrite dir =
        match Store.recover ~config:(store_config ()) ~dir () with
        | Error msg -> Alcotest.failf "%s: recovery failed: %s" dir msg
        | Ok r ->
            Alcotest.(check bool) "the torn log ends before every image" true
              (Store.records r.Store.store < records);
            for i = 0 to 59 do
              Store.log r.Store.store
                (Event.Accept
                   { time = 1000. +. float_of_int i; id = 1000 + i; ingress = 0; egress = 1;
                     volume = 100.; ts = 1000.; tf = 2000.; max_rate = 1.; bw = 0.01;
                     sigma = 1000.; shard = None })
            done;
            Store.close r.Store.store
      in
      rewrite bare;
      rewrite legacy;
      let a = recover_exn ~label:"rewritten" bare
      and b = recover_exn ~label:"rewritten, legacy" legacy in
      Alcotest.(check bool) "the new history runs past the images" true
        (Store.records b.Store.store > records + 50);
      if a.Store.journal.Replay.events <> b.Store.journal.Replay.events then
        Alcotest.fail "rewritten past the images: event histories differ";
      if commitment_rows a <> commitment_rows b then
        Alcotest.fail "rewritten past the images: recovered commitments differ")

(* Images are input from outside the program: truncations, flipped
   bytes, an empty file and the older JSONL format change nothing. *)
let test_snapshot_decoder_total () =
  with_tmpdir (fun tmp ->
      ignore
        (recover_beside_legacy ~label:"damaged images" ~tmp ~journal:(greedy_journal 17)
           ~plant:(fun ~dir ~ports ~records ->
             let image = legacy_image ~cursor:(records / 2) ports in
             let n = String.length image in
             let flip i =
               String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x5a) else c) image
             in
             List.iteri
               (fun k data -> write_in dir (Printf.sprintf "snap-%010d.bin" (k + 1)) data)
               [ String.sub image 0 (n / 2); String.sub image 0 (n - 1); flip 3; flip (n / 2);
                 flip (n - 1); "" ];
             write_in dir (Printf.sprintf "snap-%010d.json" (records / 2))
               {|{"snap":1,"cursor":0,"events":0}|})))

(* A CRC-valid record naming a port the fabric lacks is refused, not
   crashed on: recovery names the record and the port and leaves the log
   as it is (the record is not torn), [gridbw recover] exits 1 in both
   forms, and the daemon does not start. *)
let test_unknown_port_refused () =
  with_tmpdir (fun tmp ->
      let dir = Filename.concat tmp "store" in
      let fabric = Gridbw_topology.Fabric.make ~ingress:[| 100.; 100. |] ~egress:[| 100. |] in
      let store = Store.create ~config:(store_config ()) ~dir fabric in
      Store.close store;
      let records = Store.records store in
      let w = Wal.reopen ~config:(wal_config ()) ~dir ~records () in
      let body = Buffer.create 64 in
      Gridbw_obs.Event_codec.Binary.encode_body body
        (Event.Accept
           { time = 1.; id = 7; ingress = 5; egress = 0; volume = 100.; ts = 1.; tf = 101.;
             max_rate = 10.; bw = 5.; sigma = 1.; shard = None });
      Wal.append w (Buffer.contents body);
      Wal.close w;
      let before = wal_image dir in
      let names label msg =
        List.iter
          (fun affix ->
            if not (contains ~affix msg) then
              Alcotest.failf "%s: %S does not name %S" label msg affix)
          [ Printf.sprintf "record %d" records; "ingress port 5" ]
      in
      (match Store.recover ~config:(store_config ()) ~dir () with
      | Ok r ->
          Store.close r.Store.store;
          Alcotest.fail "recovered a journal that books ingress port 5 of 2"
      | Error msg -> names "recover" msg);
      Alcotest.(check bool) "the log is left as it is" true (wal_image dir = before);
      Alcotest.(check int) "gridbw recover exits 1" 1 (fst (gridbw [ "recover"; dir ]));
      let code, json = gridbw [ "recover"; "--json"; dir ] in
      Alcotest.(check int) "gridbw recover --json exits 1" 1 code;
      Alcotest.(check bool) "the JSON says ok:false" true (contains ~affix:{|{"ok":false|} json);
      names "recover --json" json;
      let cfg =
        { (Gridbw_serve.Daemon.default_config ~policy ~fabric ~store_dir:dir
             (Gridbw_serve.Daemon.Unix_socket (Filename.concat tmp "d.sock")))
          with
          Gridbw_serve.Daemon.store_config = store_config () }
      in
      match Gridbw_serve.Daemon.create cfg with
      | Error msg -> names "serve" msg
      | Ok _ -> Alcotest.fail "the daemon started on a journal naming an unknown port")

(* --- the recovery audit ---

   [Reference.audit_recovered] decides whether a recovered journal may be
   served from.  The hand-built journals below are logged event by event
   through [Store.log], the way the daemon journals. *)

(* An admit of [bw] on [ingress] -> [egress] at [time], over 100 MB. *)
let log_admit store ~seq ~id ?(ingress = 0) ?(egress = 0) ~time ~bw ~max_rate () =
  let volume = 100. and ts = time and tf = time +. 100. in
  Store.log store (Event.Arrival { time; seq; id; ingress; egress; volume; ts; tf; max_rate });
  Store.log store
    (Event.Accept
       { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma = time; shard = None })

let log_cancel store ~time ~id ~bw =
  Store.log store (Event.Preempt { time; id; bw; shard = None })

(* Journal [log] into a fresh store on [fabric2] and recover it. *)
let recover_journal log =
  with_tmpdir (fun dir ->
      let store = Store.create ~config:(store_config ()) ~dir (fabric2 ()) in
      log store;
      Store.close store;
      recover_exn ~label:"hand-built journal" dir)

let expect_failed ~label ~affixes = function
  | Reference.Failed failures ->
      List.iter
        (fun affix ->
          if not (List.exists (contains ~affix) failures) then
            Alcotest.failf "%s: no failure mentions %S in [%s]" label affix
              (String.concat "; " failures))
        affixes
  | Reference.Clean n -> Alcotest.failf "%s: audit passed %d bookings" label n
  | Reference.Skipped why -> Alcotest.failf "%s: audit skipped: %s" label why

(* A cancel does not switch the reference audit off: request 0 is granted
   twice its rate cap, and request 1 is cancelled. *)
let test_audit_cancel_keeps_rate_check () =
  let r =
    recover_journal (fun store ->
        log_admit store ~seq:0 ~id:0 ~time:1. ~bw:10. ~max_rate:5. ();
        log_admit store ~seq:1 ~id:1 ~ingress:1 ~egress:1 ~time:2. ~bw:5. ~max_rate:5. ();
        log_cancel store ~time:3. ~id:1 ~bw:5.)
  in
  expect_failed ~label:"rate above cap" ~affixes:[ "request 0 granted" ]
    (Reference.audit_recovered r);
  match Admission.of_recovered ~policy r with
  | Error msg ->
      if not (contains ~affix:"request 0 granted" msg) then
        Alcotest.failf "refusal does not name the violation: %s" msg
  | Ok _ -> Alcotest.fail "a journal granting above the rate cap must be refused"

(* Two survivors overload ingress 0 (60 + 60 > 100) next to a cancel. *)
let test_audit_cancel_keeps_port_check () =
  let r =
    recover_journal (fun store ->
        log_admit store ~seq:0 ~id:0 ~egress:0 ~time:1. ~bw:60. ~max_rate:100. ();
        log_admit store ~seq:1 ~id:1 ~ingress:1 ~egress:1 ~time:1. ~bw:10. ~max_rate:100. ();
        log_cancel store ~time:1.5 ~id:1 ~bw:10.;
        log_admit store ~seq:2 ~id:2 ~egress:1 ~time:2. ~bw:60. ~max_rate:100. ())
  in
  match Reference.audit_recovered r with
  | Reference.Failed failures ->
      Alcotest.(check (list string)) "the port and the instant"
        [ "ingress port 0 overloaded at t=2.000: 120.000 > 100.000 MB/s" ] failures
  | Reference.Clean n -> Alcotest.failf "audit passed %d bookings" n
  | Reference.Skipped why -> Alcotest.failf "audit skipped: %s" why

(* The port check sees every booking the journal made, a cancelled one
   until its cancel: requests 0 and 1 overload ingress 0 together
   (60 + 60 > 100) over [1, 2), and request 1 is cancelled at 2.  The
   survivor alone is feasible, so a check of the survivors alone would
   pass it. *)
let test_audit_sees_cancelled_booking () =
  let r =
    recover_journal (fun store ->
        log_admit store ~seq:0 ~id:0 ~egress:0 ~time:1. ~bw:60. ~max_rate:100. ();
        log_admit store ~seq:1 ~id:1 ~egress:1 ~time:1. ~bw:60. ~max_rate:100. ();
        log_cancel store ~time:2. ~id:1 ~bw:60.)
  in
  Alcotest.(check int) "one survivor" 1 (List.length r.Store.journal.Replay.survivors);
  let overload = "ingress port 0 overloaded at t=1.000: 120.000 > 100.000 MB/s" in
  (match Reference.audit_recovered r with
  | Reference.Failed failures ->
      Alcotest.(check (list string)) "only the overload before the cancel" [ overload ] failures
  | Reference.Clean n -> Alcotest.failf "audit passed %d bookings" n
  | Reference.Skipped why -> Alcotest.failf "audit skipped: %s" why);
  match Admission.of_recovered ~policy r with
  | Error msg ->
      if not (contains ~affix:overload msg) then
        Alcotest.failf "refusal does not name the port and the instant: %s" msg
  | Ok _ -> Alcotest.fail "a journal that overloaded a port before a cancel must be refused"

(* A cancel cuts only the booking its id holds when it comes.  Request 1
   is booked on ingress 1 and cancelled at 1.5 (or only cancelled), then
   booked at 2 on ingress 0 next to request 0 (60 + 60 > 100): that
   booking comes after the cancel and counts whole, so the journal must
   be refused before the controller replays it. *)
let test_audit_rebooking_after_cancel () =
  List.iter
    (fun (label, first_booking) ->
      let r =
        recover_journal (fun store ->
            log_admit store ~seq:0 ~id:0 ~egress:0 ~time:1. ~bw:60. ~max_rate:100. ();
            if first_booking then
              log_admit store ~seq:1 ~id:1 ~ingress:1 ~egress:1 ~time:1. ~bw:10. ~max_rate:100. ();
            log_cancel store ~time:1.5 ~id:1 ~bw:10.;
            log_admit store ~seq:2 ~id:1 ~egress:1 ~time:2. ~bw:60. ~max_rate:100. ())
      in
      (match Reference.audit_recovered r with
      | Reference.Failed _ -> ()
      | Reference.Clean n -> Alcotest.failf "%s: audit passed %d bookings" label n
      | Reference.Skipped why -> Alcotest.failf "%s: audit skipped: %s" label why);
      match Admission.of_recovered ~policy r with
      | Error msg ->
          if not (contains ~affix:"recovered journal fails its audit" msg) then
            Alcotest.failf "%s: refusal does not come from the audit: %s" label msg
      | Ok _ -> Alcotest.failf "%s: a journal whose booking overloads a port must be refused" label)
    [ ("rebooked after its cancel", true); ("booked after a cancel of no booking", false) ]

(* The daemon's own journals with cancels pass, and the cancelled
   bookings are left out of the survivors the audit counts. *)
let test_audit_daemon_cancels_clean () =
  with_tmpdir (fun dir ->
      ignore (daemon_cancels_run ~dir);
      let r = recover_exn ~label:"daemon with cancels" dir in
      let survivors = List.length r.Store.journal.Replay.survivors in
      Alcotest.(check bool) "cancels leave fewer survivors than accepts" true
        (survivors < List.length r.Store.accepted);
      match Reference.audit_recovered r with
      | Reference.Clean n -> Alcotest.(check int) "every survivor audited" survivors n
      | Reference.Skipped why -> Alcotest.failf "daemon journal skipped: %s" why
      | Reference.Failed failures ->
          Alcotest.failf "daemon journal failed: %s" (String.concat "; " failures))

(* A capacity revision past the prefix marks a fault-injector run: the
   audit is skipped.  The journal below is sound (request 0 ran at 80 of
   100 and ended at t = 2.25, before ingress 0 dropped to 50 at t = 5),
   yet the port check fails on it against the revised capacity, because
   it compares the whole history with one capacity per port. *)
let test_audit_capacity_revision_skipped () =
  let r =
    recover_journal (fun store ->
        log_admit store ~seq:0 ~id:0 ~time:1. ~bw:80. ~max_rate:100. ();
        Store.log store (Event.Capacity { time = 5.; side = Event.Ingress; port = 0; capacity = 50. }))
  in
  let ingress0 =
    List.filter_map
      (fun ((q : Request.t), interval) -> if q.Request.ingress = 0 then Some interval else None)
      (commitments r.Store.journal)
  in
  Alcotest.(check bool) "the port check misreads the revised journal" true
    (Gridbw_metrics.Validate.port_sweep ~slack:1e-9 ~capacity:(fun _ -> 50.) ingress0 <> None);
  match Reference.audit_recovered r with
  | Reference.Skipped _ -> ()
  | Reference.Clean _ | Reference.Failed _ -> Alcotest.fail "capacity revision must be skipped"

let test_store_metrics () =
  let requests = workload_of_seed ~n:30 17 in
  with_tmpdir (fun tmp ->
      let dir = Filename.concat tmp "src" in
      let obs = Obs.create () in
      let t0 = List.fold_left (fun t (r : Request.t) -> Float.min t r.Request.ts) 0.0 requests in
      let store =
        Store.create ~config:(store_config ~batch:4 ()) ~obs ~time:t0 ~dir (fabric2 ())
      in
      ignore (Flexible.greedy ~ctx:(journaled store) (fabric2 ()) policy requests);
      Store.close store;
      let m = Obs.metrics obs in
      Alcotest.(check int) "wal_records_total counts every record" (Store.records store)
        (Metrics.value (Metrics.counter m "store_wal_records_total"));
      Alcotest.(check bool) "fsyncs happened" true
        (Metrics.value (Metrics.counter m "store_fsync_total") > 0);
      let h = Metrics.histogram m "store_fsync_batch_size" in
      Alcotest.(check int) "batch histogram sums to the record count" (Store.records store)
        (int_of_float (Metrics.hist_sum h));
      (* Recovery counts the records it read. *)
      let obs2 = Obs.create () in
      match Store.recover ~config:(store_config ()) ~obs:obs2 ~dir () with
      | Error msg -> Alcotest.failf "recover: %s" msg
      | Ok r ->
          Store.close r.Store.store;
          Alcotest.(check int) "store_recovery_records" (Store.records r.Store.store)
            (Metrics.value (Metrics.counter (Obs.metrics obs2) "store_recovery_records")))

let test_create_refuses_existing () =
  with_tmpdir (fun tmp ->
      let dir = Filename.concat tmp "s" in
      let store = Store.create ~config:(store_config ()) ~dir (fabric2 ()) in
      Store.close store;
      Alcotest.(check bool) "exists" true (Store.exists ~dir);
      match Store.create ~config:(store_config ()) ~dir (fabric2 ()) with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "create over an existing store accepted")

(* Random crash offsets, on top of the exhaustive boundary matrix. *)
let prop_random_offset_recovers =
  let requests = lazy (workload_of_seed ~n:30 3) in
  let fixture =
    lazy
      (let requests = Lazy.force requests in
       let dir = Filename.temp_file "gridbw-store-prop" "" in
       Sys.remove dir;
       Sys.mkdir dir 0o755;
       ignore (journal_run ~batch:4 ~dir requests);
       at_exit (fun () -> if Sys.file_exists dir then rm_rf dir);
       (dir, snd (Torn.record_boundaries ~dir), baseline requests))
  in
  qcase ~count:25 "store: recovery converges from a random crash offset"
    QCheck2.Gen.(int_range 0 10_000_000)
    (fun raw ->
      let src, total, expected = Lazy.force fixture in
      let requests = Lazy.force requests in
      let n = raw mod total in
      let scratch = src ^ "-carved" in
      let dir = carve ~src ~scratch n in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists scratch then rm_rf scratch)
        (fun () ->
          match Store.recover ~config:(store_config ()) ~dir () with
          | Error _ ->
              (* Only legitimate inside the capacity prefix. *)
              let kept = (Wal.scan ~dir).Wal.valid in
              kept < n_prefix
          | Ok r ->
              let result = resume ~label:"random offset" r requests in
              Store.close r.Store.store;
              Summary.compute (fabric2 ()) ~all:requests ~accepted:result.Types.accepted
              = expected))

(* --- Store.flush: explicit group commit --- *)

let wal_bytes dir =
  Array.fold_left
    (fun acc f ->
      if String.length f >= 4 && String.sub f 0 4 = "wal-" then
        acc + (Unix.stat (Filename.concat dir f)).Unix.st_size
      else acc)
    0 (Sys.readdir dir)

(* With a group-commit batch far larger than what we append (and the
   sync delay out of reach), records stay in the writer's buffer: nothing
   lands on disk until Store.flush forces the group commit.  This is the
   fsync the daemon runs before acking a round. *)
let test_flush_forces_group_commit () =
  with_tmpdir (fun dir ->
      let obs = Obs.create () in
      let store =
        Store.create ~config:(store_config ~batch:1000 ()) ~obs ~dir (fabric2 ())
      in
      Store.flush store;
      let base = wal_bytes dir in
      for i = 0 to 9 do
        Store.log store
          (Event.Arrival
             { time = float_of_int i; seq = i; id = i; ingress = 0; egress = 0;
               volume = 10.; ts = float_of_int i; tf = float_of_int i +. 10.;
               max_rate = 5. })
      done;
      Alcotest.(check int) "group commit holds records back" base (wal_bytes dir);
      let fsyncs () = Metrics.value (Metrics.counter (Obs.metrics obs) "store_fsync_total") in
      let before = fsyncs () in
      Store.flush store;
      let flushed = wal_bytes dir in
      Alcotest.(check bool) "flush pushes the tail to disk" true (flushed > base);
      Alcotest.(check bool) "flush fsyncs" true (fsyncs () > before);
      Store.flush store;
      Alcotest.(check int) "flush of an empty tail is a no-op" flushed (wal_bytes dir);
      let total = Store.records store in
      Store.close store;
      match Store.recover ~config:(store_config ()) ~dir () with
      | Error e -> Alcotest.fail e
      | Ok r ->
          Alcotest.(check int) "every flushed record recovers" total
            (Store.records r.Store.store);
          Store.close r.Store.store)

let suites =
  [
    ( "store",
      [
        case "flush: forces the group commit to disk" test_flush_forces_group_commit;
        case "wal: frame round-trip, corruption detected" test_frame_roundtrip;
        case "wal: group commit fsyncs per batch" test_group_commit;
        case "wal: segments rotate and reopen" test_segment_rotation;
        case "wal: segment gap orphans the tail" test_segment_gap_orphans_tail;
        case "store: create refuses an existing store" test_create_refuses_existing;
        case "crash matrix: every boundary and torn record (seed 3)" (crash_matrix 3);
        case "crash matrix: every boundary and torn record (seed 17)" (crash_matrix 17);
        case "crash: flipped byte truncates at the CRC" test_flipped_byte_truncates;
        case "crash: double crash, recover twice" test_double_crash;
        case "crash matrix: sharded journal, cross-shard admissions both-booked-or-neither"
          test_sharded_crash_matrix;
        case "crash matrix: malleable journal, reshape+admit both-or-neither"
          test_malleable_crash_matrix;
        case "crash matrix: a pair record cut at every byte" test_pair_record_every_byte;
        case "crash matrix: a revising reshape pair cut at every byte"
          test_reshape_pair_every_byte;
        case "journal: the pair rule falls back to single records" test_pair_rule_fallback;
        case "journal: the WAL is the pair-rule records, byte for byte" test_wal_is_pair_records;
        case "journal: recovered events are the logged events"
          test_recovered_events_are_logged_events;
        case "recovery: bookings, decided ids match the event history"
          test_recovered_views_match_events;
        case "recovery audit: a cancel keeps the rate check, and serving refuses"
          test_audit_cancel_keeps_rate_check;
        case "recovery audit: a cancel keeps the port check" test_audit_cancel_keeps_port_check;
        case "recovery audit: a cancelled booking counts until its cancel"
          test_audit_sees_cancelled_booking;
        case "recovery audit: a booking made after a cancel of its id counts whole"
          test_audit_rebooking_after_cancel;
        case "recovery audit: a daemon journal with cancels is clean"
          test_audit_daemon_cancels_clean;
        case "recovery audit: a capacity-revision journal is skipped"
          test_audit_capacity_revision_skipped;
        case "metrics: store counters land in the registry" test_store_metrics;
        case "replay: the replayed controller equals the live one" test_replay_matches_live;
        case "pins: each journal's recovered views and recover output" test_journal_pins;
        case "crash: snapshot + WAL tail recovery" test_snapshot_recovery;
        case "snapshot: recovery equals WAL-only recovery" test_snapshot_matches_wal_only;
        case "snapshot: stale temp files change nothing on recovery" test_stale_temp_ignored;
        case "snapshot: one the truncated log no longer reaches is never read"
          test_outran_snapshot_ignored;
        case "snapshot: damaged or old-format images are skipped" test_snapshot_decoder_total;
        case "store: the live store keeps nothing per booking" test_live_store_keeps_no_history;
        case "recovery: a record naming an unknown port is refused, the log kept"
          test_unknown_port_refused;
        prop_random_offset_recovers;
      ] );
  ]
