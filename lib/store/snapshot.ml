module Ledger = Gridbw_alloc.Ledger
module Binio = Gridbw_wire.Binio
module Frame = Gridbw_wire.Frame

(* Frame tag for snapshot images; events own 0x01, WAL records 0x02,
   serve frames 0x03, spans 0x04. *)
let frame_tag = 0x05

(* Snapshots kept on disk after each write: the newest may be unusable
   (corrupt, or above a torn WAL tail), so one older image stays. *)
let retained = 2

let name cursor = Printf.sprintf "snap-%010d.bin" cursor

(* Any [snap-<10 digits>.<suffix>] counts, so files of an older snapshot
   format are still pruned (and fail to decode when loaded). *)
let snap_cursor file =
  if String.length file > 16 && String.sub file 0 5 = "snap-" && file.[15] = '.' then
    int_of_string_opt (String.sub file 5 10)
  else None

let is_temp file =
  String.length file > 10
  && String.sub file 0 6 = ".snap-"
  && Filename.check_suffix file ".tmp"

(* --- binary image ---

   The payload is the cursor (i64), then the ingress side and the egress
   side.  A side is its port count (u32), then per port a segment count
   (u32) and that many (from, until, level) f64 triples.  Floats are IEEE
   bit patterns, so the restored ledger holds exactly the dumped levels. *)

let encode ~cursor (d : Ledger.dump) =
  (* Sized up front and written in place: an image runs to megabytes,
     and each copy of it would raise the writer's peak memory. *)
  let count ports = Array.fold_left (fun n segs -> n + 4 + (24 * List.length segs)) 4 ports in
  let len = 8 + count d.Ledger.dump_ingress + count d.Ledger.dump_egress in
  Frame.make ~tag:frame_tag ~len (fun b start ->
      let pos = ref start in
      let u32 v =
        Bytes.set_int32_le b !pos (Int32.of_int v);
        pos := !pos + 4
      in
      let i64 v =
        Bytes.set_int64_le b !pos v;
        pos := !pos + 8
      in
      let f64 v = i64 (Int64.bits_of_float v) in
      let side ports =
        u32 (Array.length ports);
        Array.iter
          (fun segs ->
            u32 (List.length segs);
            List.iter
              (fun (s : Ledger.segment) ->
                f64 s.Ledger.seg_from;
                f64 s.Ledger.seg_until;
                f64 s.Ledger.seg_level)
              segs)
          ports
      in
      i64 (Int64.of_int cursor);
      side d.Ledger.dump_ingress;
      side d.Ledger.dump_egress)

(* Total over any input: reads past the payload raise [Invalid_argument]
   (caught below) after allocating at most in proportion to the bytes
   read, and a port count is bounded by the payload before the array is
   made. *)
let decode s =
  match Frame.decode s ~pos:0 with
  | Gridbw_wire.Codec.Value ((tag, p), next) when tag = frame_tag && next = String.length s -> (
      let pos = ref 0 in
      let take n =
        let at = !pos in
        pos := at + n;
        at
      in
      let u32 () = Binio.get_u32 p (take 4) in
      let f64 () = Binio.get_f64 p (take 8) in
      let segment _ =
        let seg_from = f64 () in
        let seg_until = f64 () in
        let seg_level = f64 () in
        { Ledger.seg_from; seg_until; seg_level }
      in
      let side () =
        let n = u32 () in
        if n > String.length p / 4 then invalid_arg "Snapshot.decode: port count";
        Array.init n (fun _ -> List.init (u32 ()) segment)
      in
      try
        let cursor = Binio.get_i64 p (take 8) in
        let dump_ingress = side () in
        let dump_egress = side () in
        if !pos = String.length p then Some (cursor, { Ledger.dump_ingress; dump_egress })
        else None
      with Invalid_argument _ -> None)
  | _ -> None

(* --- files --- *)

(* Snapshot files in [dir], newest first. *)
let listing dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f -> Option.map (fun c -> (c, f)) (snap_cursor f))
  |> List.sort (fun a b -> compare b a)

let remove dir f = try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()

let write ~dir ~cursor ledger =
  let final = Filename.concat dir (name cursor) in
  let tmp = Filename.concat dir ("." ^ name cursor ^ ".tmp") in
  let image = encode ~cursor ledger in
  let oc = open_out_bin tmp in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_bytes oc image;
      flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp final;
  Wal.fsync_dir dir;
  List.iteri (fun i (_, f) -> if i >= retained then remove dir f) (listing dir)

let tidy ~dir ~max_cursor =
  let stale f =
    is_temp f || match snap_cursor f with Some c -> c > max_cursor | None -> false
  in
  match List.filter stale (Array.to_list (Sys.readdir dir)) with
  | [] -> ()
  | files ->
      List.iter (remove dir) files;
      Wal.fsync_dir dir

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all) with Sys_error _ -> None

let load_latest ~dir ~max_cursor fabric =
  listing dir
  |> List.find_map (fun (c, f) ->
         if c > max_cursor then None
         else
           match Option.bind (read_file (Filename.concat dir f)) decode with
           | Some (cursor, dump) when cursor = c -> (
               try Some (c, Ledger.restore fabric dump) with Invalid_argument _ -> None)
           | _ -> None)
