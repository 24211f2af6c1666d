(* Write-ahead log with group commit and segment rotation.  Every record
   is one binary frame from lib/wire (magic 0xB1, tag {!record_tag},
   length, payload, CRC32); a record that does not open with the magic
   byte is corruption like any other, and the scan cuts the log there. *)

module Codec = Gridbw_wire.Codec
module Frame = Gridbw_wire.Frame

(* Frame tag for WAL records; the event codec owns 0x01. *)
let record_tag = 0x02

(* Persist the directory entries of files created, renamed, removed or
   truncated in [dir]: fsyncing a file does not make its name durable.
   Not every filesystem allows fsync on a directory fd, hence
   best-effort. *)
let fsync_dir dir =
  try
    let fd = Unix.openfile dir [ Unix.O_RDONLY ] 0 in
    Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Unix.fsync fd)
  with Unix.Unix_error _ -> ()

type config = { batch : int; delay : float; segment_bytes : int }

let default_config = { batch = 64; delay = 0.05; segment_bytes = 4 * 1024 * 1024 }

let validate_config c =
  if c.batch < 1 then invalid_arg "Wal: batch must be >= 1";
  if c.delay < 0. || not (Float.is_finite c.delay) then
    invalid_arg "Wal: delay must be non-negative and finite";
  if c.segment_bytes < 1 then invalid_arg "Wal: segment_bytes must be >= 1"

type writer = {
  dir : string;
  config : config;
  on_sync : int -> unit;
  kill_after : int option;
  mutable oc : out_channel;
  mutable seg_path : string;
  mutable seg_bytes : int;
  mutable records : int;
  mutable total_bytes : int;
  mutable appended : int;
  mutable unsynced : int;
  mutable oldest_unsynced : float;
  mutable dirs : string list;  (* directories to fsync at the next sync *)
  mutable frame : Bytes.t;  (* the record being appended, reused *)
}

let seg_name idx = Printf.sprintf "wal-%010d.log" idx

let seg_index name =
  if
    String.length name = 18
    && String.sub name 0 4 = "wal-"
    && Filename.check_suffix name ".log"
  then int_of_string_opt (String.sub name 4 10)
  else None

(* Segments in log order: (first record index, path). *)
let segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         match seg_index f with Some i -> Some (i, Filename.concat dir f) | None -> None)
  |> List.sort compare

let open_segment path =
  open_out_gen [ Open_wronly; Open_creat; Open_append; Open_binary ] 0o644 path

(* A segment that does not exist yet is created, and its name made
   durable by the next sync: before any record in it is acked. *)
let make_writer ?(config = default_config) ?kill_after
    ?(on_sync = fun _ -> ()) ?(parents = []) ~dir ~records ~total_bytes ~seg_path ~seg_bytes () =
  validate_config config;
  let dirs = if Sys.file_exists seg_path then parents else dir :: parents in
  {
    dir;
    config;
    on_sync;
    kill_after;
    oc = open_segment seg_path;
    seg_path;
    seg_bytes;
    records;
    total_bytes;
    appended = 0;
    unsynced = 0;
    oldest_unsynced = 0.;
    dirs;
    frame = Bytes.create 256;
  }

let create ?config ?kill_after ?on_sync ?parents ~dir () =
  let seg_path = Filename.concat dir (seg_name 0) in
  make_writer ?config ?kill_after ?on_sync ?parents ~dir ~records:0 ~total_bytes:0 ~seg_path
    ~seg_bytes:0 ()

let reopen ?config ?kill_after ?on_sync ~dir ~records () =
  let segs = segments dir in
  let total_bytes =
    List.fold_left (fun acc (_, p) -> acc + (Unix.stat p).Unix.st_size) 0 segs
  in
  let seg_path, seg_bytes =
    match List.rev segs with
    | (_, p) :: _ -> (p, (Unix.stat p).Unix.st_size)
    | [] -> (Filename.concat dir (seg_name records), 0)
  in
  make_writer ?config ?kill_after ?on_sync ~dir ~records ~total_bytes ~seg_path ~seg_bytes ()

let sync w =
  if w.unsynced > 0 then begin
    flush w.oc;
    Unix.fsync (Unix.descr_of_out_channel w.oc);
    w.on_sync w.unsynced;
    w.unsynced <- 0
  end;
  if w.dirs <> [] then begin
    List.iter fsync_dir w.dirs;
    w.dirs <- []
  end

let rotate w =
  sync w;
  close_out w.oc;
  let path = Filename.concat w.dir (seg_name w.records) in
  w.oc <- open_segment path;
  w.dirs <- [ w.dir ];
  w.seg_path <- path;
  w.seg_bytes <- 0

(* Make room in [w.frame] for a frame of [len] payload bytes. *)
let reserve w len =
  let total = Frame.overhead + len in
  if Bytes.length w.frame < total then
    w.frame <- Bytes.create (Int.max total (2 * Bytes.length w.frame))

(* Frame and write the [len] payload bytes already at
   [w.frame.[Frame.header_bytes]]: the record is framed in place, so a
   body goes from its buffer to the channel with one copy. *)
let commit w len =
  let b = w.frame and total = Frame.overhead + len in
  Frame.seal b ~pos:0 ~tag:record_tag ~len;
  (match w.kill_after with
  | Some n when w.appended + 1 >= n ->
      (* Crash drill: leave a genuinely torn record on disk and die the
         way a SIGKILLed writer does — no flush, no close. *)
      output w.oc b 0 (total / 2);
      flush w.oc;
      Unix.kill (Unix.getpid ()) Sys.sigkill
  | _ -> ());
  output w.oc b 0 total;
  w.records <- w.records + 1;
  w.appended <- w.appended + 1;
  w.seg_bytes <- w.seg_bytes + total;
  w.total_bytes <- w.total_bytes + total;
  w.unsynced <- w.unsynced + 1;
  let now = Unix.gettimeofday () in
  if w.unsynced = 1 then w.oldest_unsynced <- now;
  if w.unsynced >= w.config.batch || now -. w.oldest_unsynced >= w.config.delay then sync w;
  if w.seg_bytes >= w.config.segment_bytes then rotate w

let append w payload =
  let len = String.length payload in
  reserve w len;
  Bytes.blit_string payload 0 w.frame Frame.header_bytes len;
  commit w len

let append_buffer w body =
  let len = Buffer.length body in
  reserve w len;
  Buffer.blit body 0 w.frame Frame.header_bytes len;
  commit w len

let close w =
  sync w;
  close_out w.oc

(* --- torn-tolerant scanning --- *)

type record = {
  index : int;
  seg : string;
  off : int;
  bytes : int;
  payload : string;
}

type scan = {
  records : record list;
  valid : int;
  cut : (string * int) option;
  disk_bytes : int;
  torn : string option;
}

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let decode_record content ~pos : string Codec.decoded =
  match Frame.decode content ~pos with
  | Codec.Value ((tag, payload), next) ->
      if tag <> record_tag then Corrupt (Printf.sprintf "unexpected frame tag %d in WAL" tag)
      else Value (payload, next)
  | Incomplete -> Incomplete
  | Corrupt msg -> Corrupt msg

let scan ~dir =
  let segs = segments dir in
  let disk_bytes = List.fold_left (fun acc (_, p) -> acc + (Unix.stat p).Unix.st_size) 0 segs in
  let records = ref [] in
  let index = ref 0 in
  let cut = ref None in
  let torn = ref None in
  let stop seg off reason =
    cut := Some (seg, off);
    torn := Some reason
  in
  (try
     List.iter
       (fun (start, seg) ->
         if start <> !index then begin
           (* A gap (or an unexpected first index) orphans this and every
              later segment. *)
           stop seg 0 (Printf.sprintf "segment starts at record %d, expected %d" start !index);
           raise Exit
         end;
         let content = read_file seg in
         let len = String.length content in
         let pos = ref 0 in
         while !pos < len do
           match decode_record content ~pos:!pos with
           | Codec.Value (payload, next) ->
               records :=
                 { index = !index; seg; off = !pos; bytes = next - !pos; payload } :: !records;
               incr index;
               pos := next
           | Incomplete ->
               stop seg !pos "torn record at end of segment";
               raise Exit
           | Corrupt reason ->
               stop seg !pos reason;
               raise Exit
         done)
       segs
   with Exit -> ());
  { records = List.rev !records; valid = !index; cut = !cut; disk_bytes; torn = !torn }

(* A shorter segment must stay short after power loss: the new size is
   fsynced, and the directory after every removal. *)
let truncate_file path size =
  if (Unix.stat path).Unix.st_size <> size then
    if size = 0 then Sys.remove path
    else begin
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.ftruncate fd size;
          Unix.fsync fd)
    end

let truncate ~dir s ~keep =
  if keep > s.valid then invalid_arg "Wal.truncate: keep exceeds valid records";
  let records = Array.of_list s.records in
  let boundary =
    if keep < s.valid then Some (records.(keep).seg, records.(keep).off)
    else s.cut (* keep everything valid; only the torn tail goes *)
  in
  match boundary with
  | None -> ()
  | Some (seg, off) ->
      List.iter
        (fun (_, path) ->
          if path > seg then Sys.remove path else if path = seg then truncate_file path off)
        (segments dir);
      fsync_dir dir
