(* Crash-site carving over a durable store directory.  A crash can cut
   the byte stream anywhere; the carving itself is pure byte surgery.
   Finding record boundaries needs just enough framing knowledge to walk
   records — a record is a binary frame opening with 0xB1 (u32 LE payload
   length at offset 2, 10 bytes of framing overhead); any other byte ends
   the walk.  That parsing is re-derived here at the
   byte level (rather than calling into Gridbw_store) to keep the test
   harness independent of the code under test. *)

let is_segment name =
  String.length name = 18
  && String.sub name 0 4 = "wal-"
  && Filename.check_suffix name ".log"

(* Segment names are zero-padded by their starting record index, so
   lexicographic order is segment order. *)
let segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter is_segment
  |> List.sort compare

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc data)

let copy_store ~src ~dst =
  if not (Sys.file_exists dst) then Sys.mkdir dst 0o755;
  Sys.readdir src |> Array.iter (fun name ->
      let p = Filename.concat src name in
      if not (Sys.is_directory p) then
        write_file (Filename.concat dst name) (read_file p))

let record_boundaries ~dir =
  let off = ref 0 and bounds = ref [] in
  List.iter
    (fun name ->
      let data = read_file (Filename.concat dir name) in
      let len = String.length data in
      let pos = ref 0 in
      (* a segment starts a record even if the previous one was torn *)
      (try
         while !pos < len do
           bounds := (!off + !pos) :: !bounds;
           if data.[!pos] <> '\xB1' || !pos + 6 > len then raise Exit;
           let plen =
             Char.code data.[!pos + 2]
             lor (Char.code data.[!pos + 3] lsl 8)
             lor (Char.code data.[!pos + 4] lsl 16)
             lor (Char.code data.[!pos + 5] lsl 24)
           in
           let next = !pos + 10 + plen in
           if next > len then raise Exit;
           pos := next
         done
       with Exit -> ());
      off := !off + len)
    (segments dir);
  let bounds = List.sort_uniq compare (0 :: !bounds) in
  (List.filter (fun b -> b < !off) bounds, !off)

let truncate_at ~dir n =
  if n < 0 then invalid_arg "Torn.truncate_at: negative offset";
  let off = ref 0 in
  List.iter
    (fun name ->
      let path = Filename.concat dir name in
      let data = read_file path in
      let len = String.length data in
      if !off >= n then Sys.remove path
      else if !off + len > n then write_file path (String.sub data 0 (n - !off));
      off := !off + len)
    (segments dir)

let flip_byte ~dir n =
  if n < 0 then invalid_arg "Torn.flip_byte: negative offset";
  let off = ref 0 and hit = ref false in
  List.iter
    (fun name ->
      let path = Filename.concat dir name in
      let data = read_file path in
      let len = String.length data in
      if (not !hit) && n < !off + len then begin
        hit := true;
        let b = Bytes.of_string data in
        Bytes.set b (n - !off) (Char.chr (Char.code (Bytes.get b (n - !off)) lxor 0xff));
        write_file path (Bytes.to_string b)
      end;
      off := !off + len)
    (segments dir);
  if not !hit then invalid_arg "Torn.flip_byte: offset past end of WAL"
