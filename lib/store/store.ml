module Json = Gridbw_obs.Json
module Event = Gridbw_obs.Event
module Obs = Gridbw_obs.Obs
module Sink = Gridbw_obs.Sink
module Metrics = Gridbw_obs.Metrics
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Ledger = Gridbw_alloc.Ledger
module Binary = Gridbw_obs.Event_codec.Binary
module Replay = Gridbw_metrics.Replay

type config = { wal : Wal.config; kill_after : int option }

let default_config = { wal = Wal.default_config; kill_after = None }

type t = {
  dir : string;
  obs : Obs.ctx;
  writer : Wal.writer;
  (* The journal's capacity ledger, built only if {!ledger} asks. *)
  ledger : Ledger.t Lazy.t;
  (* Reused for every record body; a store is journaled from one domain
     at a time (the sharded engine holds its journal lock). *)
  body : Buffer.t;
  (* The latest arrival, not yet written: the decision that follows it
     usually shares its record. *)
  mutable held : Event.t option;
}

let header_file dir = Filename.concat dir "store.json"
let exists ~dir = Sys.file_exists (header_file dir)
let dir t = t.dir
let records t = t.writer.Wal.records
let ledger t = Lazy.force t.ledger

(* --- live journaling --- *)

let wal_records_total = Metrics.counter_key "store_wal_records_total"

(* One record holding [t.body]. *)
let write t =
  Wal.append_buffer t.writer t.body;
  Obs.incr t.obs wal_records_total

let write_event t ev =
  Buffer.clear t.body;
  Binary.encode_body t.body ev;
  write t

(* The held arrival becomes a record of its own. *)
let release t =
  match t.held with
  | None -> ()
  | Some arrival ->
      t.held <- None;
      write_event t arrival

(* The pair rule: an arrival waits in [t.held]; the decision right after
   it, with the same id and time (and request fields, for an Accept or
   Reshape), shares its record.  Anything else writes the arrival alone
   first, so records keep the order the events came in. *)
let log t ev =
  match ev with
  | Event.Dispatch _ -> ()
  | Event.Arrival _ ->
      release t;
      t.held <- Some ev
  | _ -> (
      match t.held with
      | None -> write_event t ev
      | Some arrival ->
          t.held <- None;
          Buffer.clear t.body;
          if Binary.encode_pair t.body ~arrival ev then write t
          else begin
            write_event t arrival;
            write_event t ev
          end)

let sync t =
  release t;
  Wal.sync t.writer

let snapshot_now = sync

let close t =
  release t;
  Wal.close t.writer

let attach t obs =
  let sink = { Sink.emit = (fun e -> log t e); flush = (fun () -> sync t) } in
  if Obs.tracing obs then { obs with Obs.sink = Sink.tee sink obs.Obs.sink }
  else if Obs.enabled obs then { obs with Obs.sink = sink; tracing = true }
  else { t.obs with Obs.sink = sink; enabled = true; tracing = true }

(* --- creation --- *)

(* The parents of the directories it created, whose new entries the
   log's first sync makes durable. *)
let mkdir_p dir =
  let rec go d acc =
    if Sys.file_exists d then acc
    else begin
      let acc = go (Filename.dirname d) acc in
      (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
      Filename.dirname d :: acc
    end
  in
  go dir []

let write_header ~dir fabric =
  let path = header_file dir in
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let j =
        Json.Obj
          [
            ("gridbw_store", Json.Num 1.);
            ("ingress", Json.Num (float_of_int (Fabric.ingress_count fabric)));
            ("egress", Json.Num (float_of_int (Fabric.egress_count fabric)));
          ]
      in
      output_string oc (Json.to_string j ^ "\n");
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc))

let read_header ~dir =
  let path = header_file dir in
  if not (Sys.file_exists path) then Error "not a gridbw store (missing store.json)"
  else begin
    let ic = open_in_bin path in
    let line =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> try input_line ic with End_of_file -> "")
    in
    match Json.parse line with
    | Error msg -> Error ("corrupt store header: " ^ msg)
    | Ok j -> (
        match
          ( Option.bind (Json.member "gridbw_store" j) Json.to_int,
            Option.bind (Json.member "ingress" j) Json.to_int,
            Option.bind (Json.member "egress" j) Json.to_int )
        with
        | Some 1, Some n_in, Some n_out when n_in > 0 && n_out > 0 -> Ok (n_in, n_out)
        | Some v, _, _ when v <> 1 -> Error (Printf.sprintf "unsupported store version %d" v)
        | _ -> Error "corrupt store header: missing fields")
  end

let fresh ~dir ~obs ~ledger ~writer =
  { dir; obs; writer; ledger; body = Buffer.create 128; held = None }

let create ?(config = default_config) ?obs ?(time = 0.) ~dir fabric =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  if exists ~dir then invalid_arg ("Store.create: " ^ dir ^ " is already a store");
  let parents = mkdir_p dir in
  write_header ~dir fabric;
  (* The log's first sync fsyncs [dir] for its new segment, which makes
     the header's name durable too. *)
  let writer =
    Wal.create ~config:config.wal ?kill_after:config.kill_after ~parents
      ~on_sync:(fun n ->
        Obs.count obs "store_fsync_total";
        Obs.observe obs "store_fsync_batch_size" (float_of_int n))
      ~dir ()
  in
  let t = fresh ~dir ~obs ~ledger:(lazy (Ledger.create fabric)) ~writer in
  (* The capacity prefix: one Capacity event per port, making the journal
     self-contained (same convention as the fuzzer's bundles). *)
  for i = 0 to Fabric.ingress_count fabric - 1 do
    log t
      (Event.Capacity
         { time; side = Event.Ingress; port = i; capacity = Fabric.ingress_capacity fabric i })
  done;
  for e = 0 to Fabric.egress_count fabric - 1 do
    log t
      (Event.Capacity
         { time; side = Event.Egress; port = e; capacity = Fabric.egress_capacity fabric e })
  done;
  t

(* --- recovery --- *)

type recovered = {
  store : t;
  journal : Replay.t;
  accepted : (float * Allocation.t) list;
  decided : int -> bool;
  truncated_bytes : int;
}

(* Every commitment of the journal booked into a ledger, on first use.
   The thunk holds the bookings, not the events. *)
let ledger_of (j : Replay.t) =
  let fabric = j.Replay.fabric and bookings = j.Replay.bookings in
  lazy
    (let ledger = Ledger.create fabric in
     Replay.iter_commitments bookings (fun r from_ until bw ->
         Ledger.reserve_interval ledger ~ingress:r.Request.ingress ~egress:r.Request.egress ~bw
           ~from_ ~until);
     ledger)

(* The index of the record that holds the [k]-th event (0-based). *)
let rec record_of k = function
  | [] -> invalid_arg "Store.record_of"
  | (i, evs) :: rest ->
      let n = List.length evs in
      if k < n then i else record_of (k - n) rest

let recover ?(config = default_config) ?obs ~dir () =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  match read_header ~dir with
  | Error _ as e -> e
  | Ok (n_in, n_out) -> (
      let s = Wal.scan ~dir in
      (* A CRC-valid record that fails event parsing cuts the log exactly
         like a CRC failure would.  A record holds one event, or an
         arrival and its decision. *)
      let rec parse acc = function
        | [] -> (List.rev acc, None)
        | (r : Wal.record) :: rest -> (
            match Binary.of_record r.Wal.payload with
            | Ok evs -> parse ((r.Wal.index, evs) :: acc) rest
            | Error _ -> (List.rev acc, Some r.Wal.index))
      in
      let records, parse_cut = parse [] s.Wal.records in
      let wal_events = List.concat_map snd records in
      let keep = match parse_cut with Some k -> k | None -> s.Wal.valid in
      let kept_bytes =
        List.fold_left
          (fun acc (r : Wal.record) -> if r.Wal.index < keep then acc + r.Wal.bytes else acc)
          0 s.Wal.records
      in
      (* The journal is read, and its ports checked, before anything is
         truncated: a CRC-valid record naming an unknown port is not torn. *)
      match Replay.of_events ~ports:(n_in, n_out) wal_events with
      | Error (Replay.Bad_event (k, msg)) ->
          Error (Printf.sprintf "record %d: %s" (record_of k records) msg)
      | Error e -> Error (Replay.describe e)
      | Ok journal ->
          (* Physically drop the torn tail before reopening for append. *)
          Wal.truncate ~dir s ~keep;
          let writer =
            Wal.reopen ~config:config.wal ?kill_after:config.kill_after
              ~on_sync:(fun n ->
                Obs.count obs "store_fsync_total";
                Obs.observe obs "store_fsync_batch_size" (float_of_int n))
              ~dir ~records:keep ()
          in
          let t = fresh ~dir ~obs ~ledger:(ledger_of journal) ~writer in
          Obs.count_n obs "store_recovery_records" keep;
          Ok
            {
              store = t;
              journal;
              accepted = journal.Replay.accepted;
              decided = journal.Replay.decided;
              truncated_bytes = s.Wal.disk_bytes - kept_bytes;
            })

(* Defined last so the stdlib's channel [flush] stays visible above. *)
let flush = sync
