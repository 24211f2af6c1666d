(* Durable admission journal (lib/store): WAL framing and group commit,
   segment rotation, snapshots, and the crash matrix — a journaled GREEDY
   run carved at every record boundary, mid-record, and with flipped
   bytes must recover deterministically and resume to a summary
   bit-identical to the uninterrupted baseline. *)

open Helpers
module Wal = Gridbw_store.Wal
module Store = Gridbw_store.Store
module Torn = Gridbw_fault.Torn
module Flexible = Gridbw_core.Flexible
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Summary = Gridbw_metrics.Summary
module Reference = Gridbw_check.Reference
module Ledger = Gridbw_alloc.Ledger
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

let store_config ?batch ?segment_bytes ?(snapshot_bytes = max_int) () =
  { Store.default_config with wal = wal_config ?batch ?segment_bytes (); snapshot_bytes }

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

let journal_run ?batch ?segment_bytes ?snapshot_bytes ~dir requests =
  let t0 = List.fold_left (fun t (r : Request.t) -> Float.min t r.Request.ts) 0.0 requests in
  let store =
    Store.create ~config:(store_config ?batch ?segment_bytes ?snapshot_bytes ())
      ~time:t0 ~dir (fabric2 ())
  in
  let result = Flexible.greedy ~ctx:(Gridbw_core.Runtime.make ~store ()) (fabric2 ()) policy requests in
  Store.close store;
  result

let resume_and_check ~label ~expected ~dir requests =
  match Store.recover ~config:(store_config ()) ~dir () with
  | Error msg -> Alcotest.failf "%s: recovery failed: %s" label msg
  | Ok r ->
      let result =
        Flexible.greedy_resume
          ~ctx:(Gridbw_core.Runtime.make ~store:r.Store.store ())
          r.Store.initial_fabric policy
          ~restored:r.Store.accepted ~decided:r.Store.decided ~arrived:r.Store.arrived requests
      in
      Store.close r.Store.store;
      let got = Summary.compute (fabric2 ()) ~all:requests ~accepted:result.Types.accepted in
      if got <> expected then
        Alcotest.failf "%s: resumed summary differs:@.baseline %a@.resumed %a" label Summary.pp
          expected Summary.pp got;
      (* The recovered bookings themselves must be a feasible schedule. *)
      (match Reference.audit_allocations (fabric2 ()) (List.map snd r.Store.accepted) with
      | [] -> ()
      | vs -> Alcotest.failf "%s: %d audit violations on recovered state" label (List.length vs));
      if not (Ledger.within_capacity (Store.ledger r.Store.store)) then
        Alcotest.failf "%s: recovered mirror ledger exceeds capacity" label

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

let snap_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> String.starts_with ~prefix:"snap-" f)
  |> List.sort compare

let test_snapshot_recovery () =
  let requests = workload_of_seed ~n:30 17 in
  let expected = baseline requests in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let scratch = Filename.concat tmp "carved" in
      (* Tiny snapshot threshold: several snapshots over the run. *)
      ignore (journal_run ~batch:4 ~snapshot_bytes:512 ~dir:src requests);
      let snaps = snap_files src in
      Alcotest.(check bool) "snapshots were written" true (List.length snaps >= 1);
      let _, total = Torn.record_boundaries ~dir:src in
      let dir = carve ~src ~scratch (total - 7) in
      (match Store.recover ~config:(store_config ()) ~dir () with
      | Error msg -> Alcotest.failf "snapshot recovery failed: %s" msg
      | Ok r ->
          Alcotest.(check bool) "recovery started from a snapshot" true
            (r.Store.snapshot_cursor > 0);
          Store.close r.Store.store);
      resume_and_check ~label:"snapshot + WAL tail" ~expected ~dir requests;
      (* A corrupted newest snapshot is skipped, not fatal. *)
      let dir = carve ~src ~scratch (total - 7) in
      let newest = List.sort compare snaps |> List.rev |> List.hd in
      let path = Filename.concat dir newest in
      if Sys.file_exists path then begin
        let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
        output_string oc "garbage";
        close_out oc
      end;
      resume_and_check ~label:"corrupt snapshot skipped" ~expected ~dir requests)

(* --- snapshot images ---

   A snapshot holds only the ledger image at its cursor; the history
   comes from the WAL either way.  Recovering with and without the
   snapshot files must therefore give the same history and bookings bit
   for bit, and ledgers that agree to rounding. *)

let recover_exn ~label dir =
  match Store.recover ~config:(store_config ()) ~dir () with
  | Error msg -> Alcotest.failf "%s: recovery failed: %s" label msg
  | Ok r ->
      Store.close r.Store.store;
      r

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* The image restores the dumped levels exactly, but the tail booked on
   top of it sums in a different order than a full replay does, so the
   two ledgers agree to rounding, not bit for bit: compare the levels at
   every breakpoint of either. *)
let ledgers_agree ~label a b =
  let da = Ledger.dump a and db = Ledger.dump b in
  let side port segs_a segs_b =
    Array.iteri
      (fun i sa ->
        List.iter
          (fun (s : Ledger.segment) ->
            List.iter
              (fun t ->
                let x = Ledger.usage_at a (port i) t and y = Ledger.usage_at b (port i) t in
                if Float.abs (x -. y) > 1e-9 *. Float.max 1. (Float.abs x) then
                  Alcotest.failf "%s: %a at %h holds %h vs %h" label Port.pp (port i) t x y)
              [ s.Ledger.seg_from; s.Ledger.seg_until ])
          (sa @ segs_b.(i)))
      segs_a
  in
  side Port.ingress da.Ledger.dump_ingress db.Ledger.dump_ingress;
  side Port.egress da.Ledger.dump_egress db.Ledger.dump_egress

let check_same_recovery ~label ~ids (a : Store.recovered) (b : Store.recovered) =
  if a.Store.events <> b.Store.events then Alcotest.failf "%s: event histories differ" label;
  Alcotest.(check int) (label ^ ": accepted count") (List.length b.Store.accepted)
    (List.length a.Store.accepted);
  List.iter2
    (fun (ta, (x : Allocation.t)) (tb, (y : Allocation.t)) ->
      if
        not
          (same_float ta tb
          && x.Allocation.request = y.Allocation.request
          && same_float x.Allocation.bw y.Allocation.bw
          && same_float x.Allocation.sigma y.Allocation.sigma
          && same_float x.Allocation.tau y.Allocation.tau)
      then
        Alcotest.failf "%s: booking of request %d differs" label
          x.Allocation.request.Request.id)
    a.Store.accepted b.Store.accepted;
  for id = 0 to ids - 1 do
    if a.Store.decided id <> b.Store.decided id || a.Store.arrived id <> b.Store.arrived id then
      Alcotest.failf "%s: decided/arrived differ on request %d" label id
  done;
  ledgers_agree ~label (Store.ledger a.Store.store) (Store.ledger b.Store.store);
  List.iter
    (fun (r : Store.recovered) ->
      if not (Ledger.within_capacity (Store.ledger r.Store.store)) then
        Alcotest.failf "%s: recovered mirror ledger exceeds capacity" label)
    [ a; b ]

let test_snapshot_matches_wal_only () =
  List.iter
    (fun seed ->
      let requests = workload_of_seed ~n:30 seed in
      with_tmpdir (fun tmp ->
          let src = Filename.concat tmp "src" in
          let bare = Filename.concat tmp "bare" in
          ignore (journal_run ~batch:4 ~snapshot_bytes:256 ~dir:src requests);
          Torn.copy_store ~src ~dst:bare;
          List.iter (fun f -> Sys.remove (Filename.concat bare f)) (snap_files bare);
          let label = Printf.sprintf "seed %d" seed in
          let snaps = snap_files src in
          Alcotest.(check bool) (label ^ ": snapshots written") true (snaps <> []);
          Alcotest.(check bool) (label ^ ": at most two snapshots kept") true
            (List.length snaps <= 2);
          let with_snap = recover_exn ~label src in
          let wal_only = recover_exn ~label:(label ^ ", WAL only") bare in
          Alcotest.(check bool) (label ^ ": started from a snapshot") true
            (with_snap.Store.snapshot_cursor > 0);
          Alcotest.(check int) (label ^ ": WAL-only replays everything") 0
            wal_only.Store.snapshot_cursor;
          check_same_recovery ~label ~ids:(List.length requests) with_snap wal_only))
    [ 3; 5; 17; 23 ]

let test_stale_temp_removed () =
  let requests = workload_of_seed ~n:30 17 in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let planted = Filename.concat tmp "planted" in
      ignore (journal_run ~batch:4 ~snapshot_bytes:256 ~dir:src requests);
      Torn.copy_store ~src ~dst:planted;
      (* what a crash between creating the temp file and the rename leaves *)
      let temps = [ ".snap-0000000012.bin.tmp"; ".snap-0000000009.json.tmp" ] in
      List.iter
        (fun f ->
          let oc = open_out_bin (Filename.concat planted f) in
          output_string oc "half a snapshot";
          close_out oc)
        temps;
      let clean = recover_exn ~label:"untouched" src in
      let r = recover_exn ~label:"planted temps" planted in
      List.iter
        (fun f ->
          Alcotest.(check bool) (f ^ " removed") false
            (Sys.file_exists (Filename.concat planted f)))
        temps;
      Alcotest.(check (list string)) "snapshots untouched" (snap_files src) (snap_files planted);
      Alcotest.(check int) "same snapshot cursor" clean.Store.snapshot_cursor
        r.Store.snapshot_cursor;
      check_same_recovery ~label:"planted temps" ~ids:(List.length requests) clean r)

(* A log truncated below a snapshot's cursor is written afresh from
   there, so that snapshot would describe a history that no longer
   exists: recovery must drop it, not restore it later. *)
let test_outran_snapshot_dropped () =
  let requests = workload_of_seed ~n:30 17 in
  with_tmpdir (fun tmp ->
      let src = Filename.concat tmp "src" in
      let dir = Filename.concat tmp "carved" in
      let bare = Filename.concat tmp "bare" in
      ignore (journal_run ~batch:4 ~snapshot_bytes:256 ~dir:src requests);
      let newest = List.hd (List.rev (snap_files src)) in
      let cursor = int_of_string (String.sub newest 5 10) in
      let boundaries, _ = Torn.record_boundaries ~dir:src in
      ignore (carve ~src ~scratch:dir (List.nth boundaries (cursor - 3)));
      (match Store.recover ~config:(store_config ()) ~dir () with
      | Error msg -> Alcotest.failf "carved: recovery failed: %s" msg
      | Ok r ->
          Alcotest.(check bool) "snapshot beyond the log deleted" false
            (Sys.file_exists (Filename.concat dir newest));
          (* a different history past the cut, running beyond the old cursor *)
          for i = 0 to 5 do
            Store.log r.Store.store
              (Event.Accept
                 { time = 1000. +. float_of_int i; id = 1000 + i; ingress = 0; egress = 1;
                   volume = 100.; ts = 1000.; tf = 2000.; max_rate = 1.; bw = 1.;
                   sigma = 1000.; shard = None })
          done;
          Store.close r.Store.store);
      Torn.copy_store ~src:dir ~dst:bare;
      List.iter (fun f -> Sys.remove (Filename.concat bare f)) (snap_files bare);
      check_same_recovery ~label:"rewritten past a snapshot" ~ids:1006
        (recover_exn ~label:"rewritten" dir)
        (recover_exn ~label:"rewritten, WAL only" bare))

(* Snapshot files are input from outside the program: every truncation
   and every flipped byte of a snapshot, and a leftover snapshot of the
   older JSONL format, must be skipped without raising. *)
let test_snapshot_decoder_total () =
  let requests = workload_of_seed ~n:30 17 in
  with_tmpdir (fun tmp ->
      let dir = Filename.concat tmp "src" in
      ignore (journal_run ~batch:4 ~snapshot_bytes:256 ~dir requests);
      let baseline = recover_exn ~label:"undamaged" dir in
      let older, newest =
        match List.rev (snap_files dir) with
        | n :: o :: _ -> (o, n)
        | _ -> Alcotest.fail "expected two snapshots"
      in
      let cursor_of f = int_of_string (String.sub f 5 10) in
      Alcotest.(check int) "newest snapshot is used" (cursor_of newest)
        baseline.Store.snapshot_cursor;
      let read f = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
      let write f data =
        Out_channel.with_open_bin (Filename.concat dir f) (fun oc -> output_string oc data)
      in
      let image = read newest and older_image = read older in
      let expect ~label ~cursor =
        let r =
          match Store.recover ~config:(store_config ()) ~dir () with
          | Ok r ->
              Store.close r.Store.store;
              r
          | Error msg -> Alcotest.failf "%s: recovery failed: %s" label msg
          | exception e -> Alcotest.failf "%s: recovery raised %s" label (Printexc.to_string e)
        in
        if r.Store.snapshot_cursor <> cursor then
          Alcotest.failf "%s: started from cursor %d, expected %d" label r.Store.snapshot_cursor
            cursor;
        check_same_recovery ~label ~ids:(List.length requests) baseline r
      in
      (* truncations fall back to the older snapshot *)
      for n = 0 to String.length image - 1 do
        write newest (String.sub image 0 n);
        expect ~label:(Printf.sprintf "truncated to %d bytes" n) ~cursor:(cursor_of older)
      done;
      (* flips, with the older snapshot gone, fall back to full WAL replay *)
      Sys.remove (Filename.concat dir older);
      for i = 0 to String.length image - 1 do
        let b = Bytes.of_string image in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
        write newest (Bytes.to_string b);
        expect ~label:(Printf.sprintf "byte %d flipped" i) ~cursor:0
      done;
      (* CRC-valid frames around a damaged payload reach the payload
         decoder: every strict prefix, and port/segment counts far beyond
         the bytes present *)
      let tag = Char.code image.[1] in
      let payload = String.sub image 6 (String.length image - 10) in
      let reframe p =
        let b = Buffer.create 64 in
        Gridbw_wire.Frame.add b ~tag p;
        write newest (Buffer.contents b)
      in
      for n = 0 to String.length payload - 1 do
        reframe (String.sub payload 0 n);
        expect ~label:(Printf.sprintf "payload cut to %d bytes" n) ~cursor:0
      done;
      List.iter
        (fun at ->
          let b = Bytes.of_string payload in
          Bytes.set_int32_le b at 0xFFFFFFFFl;
          reframe (Bytes.to_string b);
          expect ~label:(Printf.sprintf "count at %d blown up" at) ~cursor:0)
        [ 8; 12 ];
      (* a leftover JSONL snapshot (the older format) newer than every
         binary image is skipped too *)
      write newest image;
      write older older_image;
      let events = baseline.Store.events in
      let cursor = Store.records baseline.Store.store in
      write (Printf.sprintf "snap-%010d.json" cursor)
        (String.concat "\n"
           ((Printf.sprintf {|{"snap":1,"cursor":%d,"events":%d}|} cursor cursor
            :: List.map Event.to_json events)
           @ [ {|{"ledger":1,"ingress":[[],[]],"egress":[[],[]]}|}; "" ]));
      expect ~label:"leftover JSONL snapshot" ~cursor:(cursor_of newest))

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

(* The Accepts that were never preempted: [Store.recover]'s [accepted]
   keeps preempted bookings (the Preempt releases the mirror-ledger
   interval but the decision stands in history), so the set of bookings
   the engine must still hold is re-derived from the event stream. *)
let surviving_allocations events =
  let tbl = Hashtbl.create 32 in
  List.iter
    (function
      | Event.Accept { id; ingress; egress; volume; ts; tf; max_rate; bw; sigma; _ } ->
          let request = Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate in
          Hashtbl.replace tbl id (Allocation.make ~request ~bw ~sigma)
      | Event.Preempt { id; _ } -> Hashtbl.remove tbl id
      | _ -> ())
    events;
  Hashtbl.fold (fun _ a acc -> a :: acc) tbl []

let check_sharded_recovery ~label ~dir =
  match Store.recover ~config:(store_config ()) ~dir () with
  | Error msg -> Alcotest.failf "%s: recovery failed: %s" label msg
  | Ok r ->
      Fun.protect ~finally:(fun () -> Store.close r.Store.store) @@ fun () ->
      let allocs = surviving_allocations r.Store.events in
      (match Reference.audit_allocations (fabric2 ()) allocs with
      | [] -> ()
      | vs ->
          Alcotest.failf "%s: %d audit violation(s) on the surviving bookings" label
            (List.length vs));
      if not (Ledger.within_capacity (Store.ledger r.Store.store)) then
        Alcotest.failf "%s: recovered mirror ledger exceeds capacity" label;
      let rebuild shards =
        match
          Shard_engine.of_events ~spawn:false ~shards ~policy ~fabric:r.Store.initial_fabric
            r.Store.events
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

let malleable_journal_run ?obs ?snapshot_bytes ~dir requests =
  let t0 = List.fold_left (fun t (r : Request.t) -> Float.min t r.Request.ts) 0.0 requests in
  let store =
    Store.create ~config:(store_config ~batch:4 ?snapshot_bytes ()) ~time:t0 ~dir (fabric2 ())
  in
  let result =
    Malleable.run
      { Malleable.default with Malleable.book_ahead = 10. }
      ~ctx:(Gridbw_core.Runtime.make ?obs ~store ())
      (fabric2 ()) requests
  in
  Store.close store;
  result

(* Recover a carve and return its profiled state as [(id, triples)] rows,
   after auditing it: reference-feasible, ledger within capacity, every
   profile closing to its volume bitwise. *)
let malleable_recovered_state ~label ~dir =
  match Store.recover ~config:(store_config ()) ~dir () with
  | Error msg -> Alcotest.failf "%s: recovery failed: %s" label msg
  | Ok r ->
      Fun.protect ~finally:(fun () -> Store.close r.Store.store) @@ fun () ->
      let allocs = List.map snd r.Store.accepted in
      (match Reference.audit_allocations (fabric2 ()) allocs with
      | [] -> ()
      | vs -> Alcotest.failf "%s: %d audit violations on recovered state" label (List.length vs));
      if not (Ledger.within_capacity (Store.ledger r.Store.store)) then
        Alcotest.failf "%s: recovered mirror ledger exceeds capacity" label;
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
            r.Store.events
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
            if r.Store.events <> before then
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
      let logged = List.filteri (fun i _ -> i >= n_prefix) r.Store.events in
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

let journal_store ~snapshot_bytes ~dir =
  Store.create ~config:(store_config ~batch:4 ~snapshot_bytes ()) ~dir (fabric2 ())

let arrival_of ~time ~seq (r : Request.t) =
  Event.Arrival
    { time; seq; id = r.Request.id; ingress = r.Request.ingress; egress = r.Request.egress;
      volume = r.Request.volume; ts = r.Request.ts; tf = r.Request.tf;
      max_rate = r.Request.max_rate }

(* every third admit is cancelled right after it is granted *)
let greedy_cancels_run ~snapshot_bytes ~dir =
  let store = journal_store ~snapshot_bytes ~dir in
  let obs, seen = recording () in
  let ctx = Runtime.make ~obs ~store () in
  let ctl = Online.create (fabric2 ()) in
  let requests =
    List.filter (fun (r : Request.t) -> r.Request.ts >= 0.) (workload_of_seed ~n:60 7)
  in
  List.iteri
    (fun seq (r : Request.t) ->
      Obs.event (Runtime.observed ctx) (fun () -> arrival_of ~time:r.Request.ts ~seq r);
      match Online.try_admit ~ctx ctl policy r ~at:r.Request.ts with
      | Types.Accepted a when seq mod 3 = 0 ->
          if not (Online.preempt ~ctx ctl a) then Alcotest.fail "cancel of a fresh grant failed"
      | _ -> ())
    (Flexible.arrival_order requests);
  Store.close store;
  seen ()

let daemon_cancels_run ~snapshot_bytes ~dir =
  let fabric = fabric2 () in
  let store = journal_store ~snapshot_bytes ~dir in
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

let window_run ~snapshot_bytes ~dir =
  let store = journal_store ~snapshot_bytes ~dir in
  let obs, seen = recording () in
  ignore
    (Flexible.window ~ctx:(Runtime.make ~obs ~store ()) (fabric2 ()) policy ~step:10.
       (workload_of_seed ~n:60 11));
  Store.close store;
  seen ()

let malleable_reshape_run ~snapshot_bytes ~dir =
  let obs, seen = recording () in
  ignore (malleable_journal_run ~obs ~snapshot_bytes ~dir (workload_of_seed ~n:30 5));
  seen ()

(* The sharded engine logs straight into the store; what it logs is
   rebuilt from its decisions: the Arrival it stamps with the decision's
   time and its own sequence number, the decision itself, and a Preempt
   per successful cancel, at the engine clock and on the deciding shard
   of the booking. *)
let sharded_run ~snapshot_bytes ~dir =
  let store = journal_store ~snapshot_bytes ~dir in
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
  let given = journal ~snapshot_bytes:512 ~dir in
  let prefix =
    List.filteri (fun i _ -> i < n_prefix) (recover_exn ~label:"journal" dir).Store.events
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
   gave [Store.log], from a snapshot in the middle of the log and from
   the WAL alone. *)
let test_recovered_events_are_logged_events () =
  List.iter
    (fun (label, journal) ->
      with_tmpdir (fun tmp ->
          let src = Filename.concat tmp "src" in
          let events = journaled_events ~journal ~dir:src in
          let bare = Filename.concat tmp "bare" in
          Torn.copy_store ~src ~dst:bare;
          List.iter (fun f -> Sys.remove (Filename.concat bare f)) (snap_files bare);
          let with_snap = recover_exn ~label src in
          let wal_only = recover_exn ~label:(label ^ ", WAL only") bare in
          Alcotest.(check bool) (label ^ ": started from a snapshot") true
            (with_snap.Store.snapshot_cursor > 0);
          List.iter
            (fun (how, (r : Store.recovered)) ->
              if r.Store.events <> events then
                Alcotest.failf "%s, %s: recovered events differ from the logged ones" label how;
              Alcotest.(check int) (label ^ ", " ^ how ^ ": replayed records")
                (Store.records r.Store.store - r.Store.snapshot_cursor)
                r.Store.replayed)
            [ ("from a snapshot", with_snap); ("WAL only", wal_only) ];
          let ids =
            List.fold_left
              (fun m ev ->
                match ev with
                | Event.Arrival { id; _ } | Event.Accept { id; _ } | Event.Reject { id; _ }
                | Event.Reshape { id; _ } ->
                    Int.max m (id + 1)
                | _ -> m)
              0 events
          in
          check_same_recovery ~label ~ids with_snap wal_only))
    journals

(* The views straight from the event list, the way the store kept them
   live before: a Reshape revision rewrites every booking of its id. *)
let views_of_events events =
  let decided = Hashtbl.create 64 and arrived = Hashtbl.create 64 in
  let booked = ref [] in
  let id_of (a : Allocation.t) = a.Allocation.request.Request.id in
  List.iter
    (function
      | Event.Arrival { id; _ } -> Hashtbl.replace arrived id ()
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
  (List.rev !booked, Hashtbl.mem decided, Hashtbl.mem arrived)

let booking_row (time, (a : Allocation.t)) =
  let bits = Int64.bits_of_float in
  ( bits time,
    a.Allocation.request,
    (bits a.Allocation.bw, bits a.Allocation.sigma, bits a.Allocation.tau),
    Option.map Rate_profile.to_triples a.Allocation.profile )

let test_recovered_views_match_events () =
  List.iter
    (fun (label, journal) ->
      with_tmpdir (fun tmp ->
          let src = Filename.concat tmp "src" in
          ignore (journal ~snapshot_bytes:512 ~dir:src);
          Alcotest.(check bool) (label ^ ": snapshots were written") true (snap_files src <> []);
          let bare = Filename.concat tmp "bare" in
          Torn.copy_store ~src ~dst:bare;
          List.iter (fun f -> Sys.remove (Filename.concat bare f)) (snap_files bare);
          List.iter
            (fun (how, dir, from_snapshot) ->
              let label = label ^ ", " ^ how in
              let r = recover_exn ~label dir in
              Alcotest.(check bool) (label ^ ": recovery used a snapshot") from_snapshot
                (r.Store.snapshot_cursor > 0);
              let accepted, decided, arrived = views_of_events r.Store.events in
              if List.map booking_row r.Store.accepted <> List.map booking_row accepted then
                Alcotest.failf "%s: recovered bookings differ from the event history" label;
              let ids =
                List.filter_map
                  (function
                    | Event.Arrival { id; _ } | Event.Reject { id; _ } | Event.Accept { id; _ }
                    | Event.Reshape { id; _ } -> Some id
                    | _ -> None)
                  r.Store.events
              in
              let top = List.fold_left Int.max 0 ids + 3 in
              for id = -1 to top do
                if r.Store.decided id <> decided id || r.Store.arrived id <> arrived id then
                  Alcotest.failf "%s: decided/arrived differ on request %d" label id
              done)
            [ ("with snapshots", src, true); ("without snapshots", bare, false) ]))
    journals

let test_store_metrics () =
  let requests = workload_of_seed ~n:30 17 in
  with_tmpdir (fun tmp ->
      let dir = Filename.concat tmp "src" in
      let obs = Obs.create () in
      let t0 = List.fold_left (fun t (r : Request.t) -> Float.min t r.Request.ts) 0.0 requests in
      let store =
        Store.create ~config:(store_config ~batch:4 ()) ~obs ~time:t0 ~dir (fabric2 ())
      in
      ignore (Flexible.greedy ~ctx:(Gridbw_core.Runtime.make ~store ()) (fabric2 ()) policy requests);
      Store.close store;
      let m = Obs.metrics obs in
      Alcotest.(check int) "wal_records_total counts every record" (Store.records store)
        (Metrics.value (Metrics.counter m "store_wal_records_total"));
      Alcotest.(check bool) "fsyncs happened" true
        (Metrics.value (Metrics.counter m "store_fsync_total") > 0);
      let h = Metrics.histogram m "store_fsync_batch_size" in
      Alcotest.(check int) "batch histogram sums to the record count" (Store.records store)
        (int_of_float (Metrics.hist_sum h));
      (* Recovery counts the records it replayed. *)
      let obs2 = Obs.create () in
      match Store.recover ~config:(store_config ()) ~obs:obs2 ~dir () with
      | Error msg -> Alcotest.failf "recover: %s" msg
      | Ok r ->
          Store.close r.Store.store;
          Alcotest.(check int) "store_recovery_records" r.Store.replayed
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
              let result =
                Flexible.greedy_resume
          ~ctx:(Gridbw_core.Runtime.make ~store:r.Store.store ())
          r.Store.initial_fabric policy
                  ~restored:r.Store.accepted ~decided:r.Store.decided ~arrived:r.Store.arrived
                  requests
              in
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

(* With --store-batch far larger than what we append (and the sync delay
   out of reach), records stay in the writer's buffer: nothing lands on
   disk until Store.flush forces the group commit.  This is the fsync the
   daemon runs before acking a round. *)
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

(* The new Runtime.ctx plumbing and the deprecated ?store argument must
   journal byte-identically: same WAL payload stream, same decisions. *)
let test_ctx_journal_matches_legacy () =
  let requests = random_requests ~seed:21L ~n:40 (fabric2 ()) in
  let journal run =
    with_tmpdir (fun dir ->
        let store = Store.create ~config:(store_config ()) ~time:0.0 ~dir (fabric2 ()) in
        let result = run store in
        Store.close store;
        let s = Wal.scan ~dir in
        ( List.length result.Types.accepted,
          List.map (fun (r : Wal.record) -> r.Wal.payload) s.Wal.records ))
  in
  let legacy = journal (fun store -> Flexible.greedy ~ctx:(Gridbw_core.Runtime.make ~store ()) (fabric2 ()) policy requests) in
  let ctxed =
    journal (fun store ->
        Flexible.greedy
          ~ctx:(Gridbw_core.Runtime.make ~store ())
          (fabric2 ()) policy requests)
  in
  Alcotest.(check int) "same accept count" (fst legacy) (fst ctxed);
  Alcotest.(check bool) "identical journal payloads" true (snd legacy = snd ctxed)

let test_observed_tees_store () =
  let module Runtime = Gridbw_core.Runtime in
  Alcotest.(check bool) "default ctx stays disabled" false
    (Runtime.observed Runtime.default).Obs.enabled;
  with_tmpdir (fun dir ->
      let store = Store.create ~config:(store_config ()) ~time:0.0 ~dir (fabric2 ()) in
      let obs = Runtime.observed (Runtime.make ~store ()) in
      Alcotest.(check bool) "store-only ctx journals" true obs.Obs.enabled;
      Store.close store)

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
        case "crash: snapshot + WAL tail recovery" test_snapshot_recovery;
        case "snapshot: recovery equals WAL-only recovery" test_snapshot_matches_wal_only;
        case "snapshot: stale temp files removed on recovery" test_stale_temp_removed;
        case "snapshot: one the truncated log no longer reaches is dropped"
          test_outran_snapshot_dropped;
        case "snapshot: damaged or old-format images are skipped" test_snapshot_decoder_total;
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
        case "journal: recovered events are the logged events, with or without a snapshot"
          test_recovered_events_are_logged_events;
        case "recovery: bookings, decided, arrived match the event history"
          test_recovered_views_match_events;
        case "metrics: store counters land in the registry" test_store_metrics;
        case "ctx: Runtime.ctx journals identically to ?store" test_ctx_journal_matches_legacy;
        case "ctx: observed tees the store sink" test_observed_tees_store;
        prop_random_offset_recovers;
      ] );
  ]
