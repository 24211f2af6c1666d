(* lib/wire: the binary form of every event constructor round-trips
   bit-exactly, plus frame-level corruption detection, truncation
   handling, and the WAL's pair records (an arrival and its decision in
   one body). *)

open Helpers
module Codec = Gridbw_wire.Codec
module Frame = Gridbw_wire.Frame
module Crc32 = Gridbw_wire.Crc32
module Event = Gridbw_obs.Event
module Event_codec = Gridbw_obs.Event_codec
module Binary = Event_codec.Binary
module Wal = Gridbw_store.Wal

(* Bodies store floats as IEEE bit patterns, so equal bodies mean
   bit-equal events (-0. and 0. included). *)
let body = Binary.body_of
let event_eq a b = body a = body b
let event_testable =
  Alcotest.testable (fun ppf e -> Format.pp_print_string ppf (String.escaped (body e))) event_eq

(* --- generators --- *)

let gen_float =
  QCheck2.Gen.(
    oneof
      [
        map (fun f -> if Float.is_finite f then f else 0.) float;
        float_range (-1e6) 1e6;
        oneofl [ 0.; -0.; 1e-300; 1e300; 4910.25 ];
      ])

let gen_id = QCheck2.Gen.int_range 0 1_000_000
let gen_side = QCheck2.Gen.oneofl [ Event.Ingress; Event.Egress ]

let gen_reason =
  QCheck2.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 24))

let gen_event =
  let open QCheck2.Gen in
  let* k = int_range 1 6 in
  match k with
  | 1 ->
      let* time = gen_float and* seq = gen_id and* id = gen_id in
      let* ingress = gen_id and* egress = gen_id in
      let* volume = gen_float and* ts = gen_float and* tf = gen_float in
      let* max_rate = gen_float in
      return (Event.Arrival { time; seq; id; ingress; egress; volume; ts; tf; max_rate })
  | 2 ->
      let* time = gen_float and* id = gen_id in
      let* ingress = gen_id and* egress = gen_id in
      let* volume = gen_float and* ts = gen_float and* tf = gen_float in
      let* max_rate = gen_float and* bw = gen_float and* sigma = gen_float in
      return (Event.Accept { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma })
  | 3 ->
      let* time = gen_float and* id = gen_id and* reason = gen_reason in
      let* port = option (pair gen_side gen_id) in
      let* headroom = option gen_float in
      return (Event.Reject { time; id; reason; port; headroom })
  | 4 ->
      let* time = gen_float and* id = gen_id and* bw = gen_float in
      return (Event.Preempt { time; id; bw })
  | 5 ->
      let* time = gen_float and* side = gen_side and* port = gen_id in
      let* excess = gen_float and* victims = gen_id in
      return (Event.Shed { time; side; port; excess; victims })
  | _ ->
      let* time = gen_float and* side = gen_side and* port = gen_id in
      let* capacity = gen_float in
      return (Event.Capacity { time; side; port; capacity })

(* One fixed exemplar per constructor, so every constructor is pinned
   even if a qcheck run draws unevenly. *)
let exemplars =
  [
    Event.Arrival
      { time = 1.5; seq = 0; id = 7; ingress = 1; egress = 2; volume = 100.;
        ts = 0.; tf = 10.; max_rate = 12.5 };
    Event.Accept
      { time = 2.; id = 7; ingress = 1; egress = 2; volume = 100.; ts = 0.;
        tf = 10.; max_rate = 12.5; bw = 10.; sigma = 2. };
    Event.Accept
      { time = 2.5; id = 11; ingress = 1; egress = 2; volume = 10.; ts = 0.;
        tf = 10.; max_rate = 12.5; bw = 2.; sigma = 2.5 };
    Event.Reject
      { time = 3.; id = 8; reason = "spike"; port = Some (Event.Egress, 4);
        headroom = Some 0.25 };
    Event.Reject
      { time = 3.5; id = 9; reason = "deadline"; port = None; headroom = None };
    Event.Preempt { time = 4.; id = 7; bw = 10. };
    Event.Shed { time = 5.; side = Event.Ingress; port = 0; excess = 12.; victims = 2 };
    Event.Capacity { time = 0.; side = Event.Egress; port = 3; capacity = 100. };
  ]

(* --- codec round-trips --- *)

let roundtrip ev =
  match Codec.of_string (module Binary) (Codec.to_string (module Binary) ev) with
  | Ok ev' -> ev'
  | Error msg -> Alcotest.failf "%s: %s" Binary.name msg

let test_exemplar_roundtrips () =
  List.iter
    (fun ev -> Alcotest.check event_testable "binary round-trip" ev (roundtrip ev))
    exemplars

let prop_roundtrip =
  qcase ~count:500 "wire: any event round-trips bit-exactly" gen_event (fun ev ->
      event_eq (roundtrip ev) ev)

(* --- frame-level corruption and truncation --- *)

let prop_bitflip_never_passes =
  qcase ~count:300 "wire: a flipped byte never decodes back to the event"
    QCheck2.Gen.(pair gen_event (int_range 0 10_000))
    (fun (ev, raw) ->
      let s = Codec.to_string (module Binary) ev in
      let i = raw mod String.length s in
      let b = Bytes.of_string s in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x01));
      match Binary.decode (Bytes.to_string b) ~pos:0 with
      | Codec.Value (ev', _) -> not (event_eq ev' ev)
      | Codec.Incomplete | Codec.Corrupt _ -> true)

let prop_truncation_is_incomplete =
  qcase ~count:300 "wire: every strict prefix of a binary frame is Incomplete"
    QCheck2.Gen.(pair gen_event (int_range 0 10_000))
    (fun (ev, raw) ->
      let s = Codec.to_string (module Binary) ev in
      let n = raw mod String.length s in
      match Binary.decode (String.sub s 0 n) ~pos:0 with
      | Codec.Incomplete -> true
      | Codec.Value _ | Codec.Corrupt _ -> false)

let test_frame_tag_validation () =
  let b = Buffer.create 32 in
  Frame.add b ~tag:0x7f "payload";
  let s = Buffer.contents b in
  (match Frame.decode s ~pos:0 with
  | Codec.Value ((tag, payload), next) ->
      Alcotest.(check int) "tag survives" 0x7f tag;
      Alcotest.(check string) "payload survives" "payload" payload;
      Alcotest.(check int) "frame size" (String.length s) next
  | _ -> Alcotest.fail "frame does not decode");
  (* An event decoder must refuse a frame with someone else's tag. *)
  match Binary.decode s ~pos:0 with
  | Codec.Corrupt _ -> ()
  | _ -> Alcotest.fail "wrong-tag frame accepted as an event"

(* --- WAL pair records --- *)

let gen_triples =
  QCheck2.Gen.(array_size (int_range 0 4) (triple gen_float gen_float gen_float))

(* An arrival and a decision that pairs with it: same time and id, and
   for an Accept or Reshape the same request fields. *)
let gen_pair =
  let open QCheck2.Gen in
  let* time = gen_float and* seq = gen_id and* id = gen_id in
  let* ingress = gen_id and* egress = gen_id in
  let* volume = gen_float and* ts = gen_float and* tf = gen_float in
  let* max_rate = gen_float in
  let arrival = Event.Arrival { time; seq; id; ingress; egress; volume; ts; tf; max_rate } in
  let* decision =
    oneof
      [
        (let* bw = gen_float and* sigma = gen_float in
         return (Event.Accept { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma }));
        (let* reason = gen_reason and* port = option (pair gen_side gen_id) in
         let* headroom = option gen_float in
         return (Event.Reject { time; id; reason; port; headroom }));
        (let* profile = gen_triples
         and* revised = array_size (int_range 0 3) (pair gen_id gen_triples) in
         return
           (Event.Reshape { time; id; ingress; egress; volume; ts; tf; max_rate; profile; revised }));
      ]
  in
  return (arrival, decision)

let pair_body ~arrival decision =
  let b = Buffer.create 128 in
  if Binary.encode_pair b ~arrival decision then Some (Buffer.contents b)
  else if Buffer.length b > 0 then Alcotest.fail "a refused pair wrote bytes"
  else None

let prop_pair_roundtrip =
  qcase ~count:500 "wal pair: arrival + decision round-trip bit-exactly" gen_pair
    (fun (arrival, decision) ->
      match pair_body ~arrival decision with
      | None -> false
      | Some s -> (
          (match Binary.of_body s with
          | Ok _ -> Alcotest.fail "of_body accepted a pair record"
          | Error _ -> ());
          match Binary.of_record s with
          | Ok [ a; d ] -> body a = body arrival && body d = body decision
          | Ok _ | Error _ -> false))

(* The next float up, bit-wise: never bit-equal to [x]. *)
let nudge x = Int64.float_of_bits (Int64.succ (Int64.bits_of_float x))

(* Differ in the time, the id or one request field: no pair. *)
let prop_pair_refused =
  qcase ~count:500 "wal pair: a differing id, time or request field is refused"
    QCheck2.Gen.(pair gen_pair (int_range 0 7))
    (fun ((arrival, decision), field) ->
      let decision =
        match decision with
        | Event.Accept d -> (
            match field with
            | 0 -> Event.Accept { d with time = nudge d.time }
            | 1 -> Event.Accept { d with id = d.id + 1 }
            | 2 -> Event.Accept { d with ingress = d.ingress + 1 }
            | 3 -> Event.Accept { d with egress = d.egress + 1 }
            | 4 -> Event.Accept { d with volume = nudge d.volume }
            | 5 -> Event.Accept { d with ts = nudge d.ts }
            | 6 -> Event.Accept { d with tf = nudge d.tf }
            | _ -> Event.Accept { d with max_rate = nudge d.max_rate })
        | Event.Reshape d -> (
            match field with
            | 0 -> Event.Reshape { d with time = nudge d.time }
            | 1 -> Event.Reshape { d with id = d.id + 1 }
            | 2 -> Event.Reshape { d with ingress = d.ingress + 1 }
            | 3 -> Event.Reshape { d with egress = d.egress + 1 }
            | 4 -> Event.Reshape { d with volume = nudge d.volume }
            | 5 -> Event.Reshape { d with ts = nudge d.ts }
            | 6 -> Event.Reshape { d with tf = nudge d.tf }
            | _ -> Event.Reshape { d with max_rate = nudge d.max_rate })
        | Event.Reject d ->
            if field mod 2 = 0 then Event.Reject { d with time = nudge d.time }
            else Event.Reject { d with id = d.id + 1 }
        | ev -> ev
      in
      pair_body ~arrival decision = None
      (* and nothing but an Arrival opens a pair *)
      && pair_body ~arrival:decision decision = None)

(* The pair layouts, byte for byte, built field by field: the arrival's
   body after the pair code, then what the decision adds. *)
let test_pair_layout () =
  let arrival =
    Event.Arrival
      { time = 2.; seq = 3; id = 7; ingress = 1; egress = 0; volume = 100.; ts = 2.; tf = 12.;
        max_rate = 25. }
  in
  let arrival_fields = String.sub (body arrival) 1 72 in
  let layout code tail =
    let b = Buffer.create 128 in
    Gridbw_wire.Binio.add_u8 b code;
    Buffer.add_string b arrival_fields;
    tail b;
    Buffer.contents b
  in
  let f64 = Gridbw_wire.Binio.add_f64 and i64 = Gridbw_wire.Binio.add_i64 in
  let u8 = Gridbw_wire.Binio.add_u8 in
  let check label decision expected framed =
    match pair_body ~arrival decision with
    | None -> Alcotest.failf "%s: not paired" label
    | Some got ->
        Alcotest.(check string) (label ^ ": layout") expected got;
        Alcotest.(check int) (label ^ ": framed size") framed (String.length got + Frame.overhead)
  in
  check "admitted"
    (Event.Accept
       { time = 2.; id = 7; ingress = 1; egress = 0; volume = 100.; ts = 2.; tf = 12.;
         max_rate = 25.; bw = 20.; sigma = 2. })
    (layout 9 (fun b ->
         f64 b 20.;
         f64 b 2.))
    99;
  check "refused"
    (Event.Reject
       { time = 2.; id = 7; reason = "port-saturated"; port = Some (Event.Egress, 0);
         headroom = Some 5. })
    (layout 10 (fun b ->
         Gridbw_wire.Binio.add_str b "port-saturated";
         u8 b 1;
         u8 b 1;
         i64 b 0;
         u8 b 1;
         f64 b 5.))
    120;
  check "reshaped"
    (Event.Reshape
       { time = 2.; id = 7; ingress = 1; egress = 0; volume = 100.; ts = 2.; tf = 12.;
         max_rate = 25.; profile = [| (2., 6., 25.) |]; revised = [| (4, [||]) |] })
    (layout 11 (fun b ->
         i64 b 1;
         f64 b 2.;
         f64 b 6.;
         f64 b 25.;
         i64 b 1;
         i64 b 4;
         i64 b 0))
    139

(* The WAL has one format: a record that does not open with the binary
   magic byte cuts the log like any other corruption. *)
let test_wal_non_magic_cuts () =
  let dir = Filename.temp_file "gridbw-wire-wal" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let rm_rf d =
    Array.iter (fun f -> Sys.remove (Filename.concat d f)) (Sys.readdir d);
    Sys.rmdir d
  in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cfg = { Wal.default_config with Wal.batch = 1 } in
      let w = Wal.create ~config:cfg ~dir () in
      for i = 0 to 4 do
        Wal.append w (Printf.sprintf "record-%d" i)
      done;
      Wal.close w;
      let seg = Filename.concat dir "wal-0000000000.log" in
      Out_channel.with_open_gen [ Open_wronly; Open_append; Open_binary ] 0o644 seg (fun oc ->
          output_string oc "00000000 2 {}\n");
      let s = Wal.scan ~dir in
      Alcotest.(check int) "the framed records survive" 5 s.Wal.valid;
      Alcotest.(check bool) "the text line cuts the log" true (s.Wal.torn <> None);
      List.iteri
        (fun i (r : Wal.record) ->
          Alcotest.(check string) "payload survives" (Printf.sprintf "record-%d" i) r.Wal.payload)
        s.Wal.records)

(* --- CRC32 --- *)

(* The byte-at-a-time CRC32 the sliced one must equal: reflected
   polynomial 0xEDB88320, register preset and final XOR 0xFFFFFFFF. *)
let reference_crc s ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 1 to 8 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let crc32_check_value () =
  Alcotest.(check int32) "the CRC-32 check value" 0xCBF43926l (Crc32.digest "123456789");
  Alcotest.(check int32) "empty input" 0l (Crc32.digest "");
  Alcotest.(check int32) "a range inside a string" 0xCBF43926l
    (Crc32.sub "xx123456789yyy" ~pos:2 ~len:9);
  Alcotest.check_raises "a range past the end" (Invalid_argument "Crc32.sub") (fun () ->
      ignore (Crc32.sub "abc" ~pos:2 ~len:2))

(* Every length from 0 to 300 at unaligned offsets: the eight-byte steps,
   the byte-at-a-time tail, and every split between them. *)
let prop_crc32_matches_reference =
  qcase ~count:1000 "crc32: sliced digest equals the byte-at-a-time one"
    QCheck2.Gen.(
      let* len = int_range 0 300 in
      let* pre = int_range 0 9 and* post = int_range 0 9 in
      let* s = string_size ~gen:(map Char.chr (int_range 0 255)) (return (pre + len + post)) in
      return (s, pre, len))
    (fun (s, pos, len) ->
      Int32.equal (Crc32.sub s ~pos ~len) (reference_crc s ~pos ~len)
      && Int32.equal (Crc32.digest (String.sub s pos len)) (reference_crc s ~pos ~len))

(* The text frames' length prefix and every integral JSON number. *)
let prop_add_decimal =
  qcase ~count:2000 "binio: add_decimal prints what string_of_int prints"
    QCheck2.Gen.(
      oneof
        [ int; int_range (-1000) 1000; map (fun k -> (1 lsl k) - 1) (int_range 0 62);
          oneofl
            [ min_int; max_int; min_int + 1; -10; -9; 9; 10; 99; 100; 999_999_999_999_999_999 ];
        ])
    (fun v ->
      let b = Buffer.create 8 in
      Buffer.add_string b "x";
      Gridbw_wire.Binio.add_decimal b v;
      Buffer.contents b = "x" ^ string_of_int v)

let suites =
  [
    ( "wire",
      [
        case "every constructor round-trips through the binary codec" test_exemplar_roundtrips;
        prop_roundtrip;
        prop_bitflip_never_passes;
        prop_truncation_is_incomplete;
        case "frame: tag byte validated by record codecs" test_frame_tag_validation;
        prop_pair_roundtrip;
        prop_pair_refused;
        case "wal pair: the three layouts, byte for byte" test_pair_layout;
        case "wal: a record without the magic byte cuts the log" test_wal_non_magic_cuts;
        case "crc32: check value and ranges" crc32_check_value;
        prop_crc32_matches_reference;
        prop_add_decimal;
      ] );
  ]
