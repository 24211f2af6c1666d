(* The wire form of {!Event.t} behind the {!Gridbw_wire.Codec.S}
   interface: a length-prefixed binary frame, the one on-disk form of
   decision traces and the body layout of WAL records.  Every
   constructor round-trips bit-exactly (floats as IEEE bit patterns);
   the qcheck suite in test_wire.ml pins it. *)

module Codec = Gridbw_wire.Codec
module Frame = Gridbw_wire.Frame
module Binio = Gridbw_wire.Binio

(* Frame tag for event records; bump on incompatible layout changes. *)
let frame_tag = 0x01

module Binary = struct
  type t = Event.t

  let name = "event-binary"

  let add_side b side = Binio.add_u8 b (match side with Event.Ingress -> 0 | Event.Egress -> 1)

  (* Optional shard-id trailer on decision events.  [None] writes no
     bytes at all, so unsharded records stay byte-identical to the
     pre-shard layout; readers treat end-of-body as [None] and accept
     both old and new records. *)
  let add_shard b = function
    | None -> ()
    | Some s ->
        Binio.add_u8 b 1;
        Binio.add_i64 b s

  (* The fields an arrival and its pair records share, after the code. *)
  let add_arrival b ~time ~seq ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate =
    Binio.add_f64 b time;
    Binio.add_i64 b seq;
    Binio.add_i64 b id;
    Binio.add_i64 b ingress;
    Binio.add_i64 b egress;
    Binio.add_f64 b volume;
    Binio.add_f64 b ts;
    Binio.add_f64 b tf;
    Binio.add_f64 b max_rate

  (* What a Reject adds after its time and id. *)
  let add_refusal b ~reason ~port ~headroom ~shard =
    Binio.add_str b reason;
    (match port with
    | None -> Binio.add_u8 b 0
    | Some (side, p) ->
        Binio.add_u8 b 1;
        add_side b side;
        Binio.add_i64 b p);
    (match headroom with
    | None -> Binio.add_u8 b 0
    | Some h ->
        Binio.add_u8 b 1;
        Binio.add_f64 b h);
    add_shard b shard

  (* What a Reshape adds after its request fields. *)
  let add_reshaping b ~profile ~revised ~shard =
    let triples segs =
      Binio.add_i64 b (Array.length segs);
      Array.iter
        (fun (from_, until, rate) ->
          Binio.add_f64 b from_;
          Binio.add_f64 b until;
          Binio.add_f64 b rate)
        segs
    in
    triples profile;
    Binio.add_i64 b (Array.length revised);
    Array.iter
      (fun (rid, segs) ->
        Binio.add_i64 b rid;
        triples segs)
      revised;
    add_shard b shard

  let encode_body b (ev : Event.t) =
    match ev with
    | Arrival { time; seq; id; ingress; egress; volume; ts; tf; max_rate } ->
        Binio.add_u8 b 1;
        add_arrival b ~time ~seq ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate
    | Accept { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma; shard } ->
        Binio.add_u8 b 2;
        Binio.add_f64 b time;
        Binio.add_i64 b id;
        Binio.add_i64 b ingress;
        Binio.add_i64 b egress;
        Binio.add_f64 b volume;
        Binio.add_f64 b ts;
        Binio.add_f64 b tf;
        Binio.add_f64 b max_rate;
        Binio.add_f64 b bw;
        Binio.add_f64 b sigma;
        add_shard b shard
    | Reject { time; id; reason; port; headroom; shard } ->
        Binio.add_u8 b 3;
        Binio.add_f64 b time;
        Binio.add_i64 b id;
        add_refusal b ~reason ~port ~headroom ~shard
    | Preempt { time; id; bw; shard } ->
        Binio.add_u8 b 4;
        Binio.add_f64 b time;
        Binio.add_i64 b id;
        Binio.add_f64 b bw;
        add_shard b shard
    | Reshape { time; id; ingress; egress; volume; ts; tf; max_rate; profile; revised; shard }
      ->
        Binio.add_u8 b 8;
        Binio.add_f64 b time;
        Binio.add_i64 b id;
        Binio.add_i64 b ingress;
        Binio.add_i64 b egress;
        Binio.add_f64 b volume;
        Binio.add_f64 b ts;
        Binio.add_f64 b tf;
        Binio.add_f64 b max_rate;
        add_reshaping b ~profile ~revised ~shard
    | Shed { time; side; port; excess; victims } ->
        Binio.add_u8 b 5;
        Binio.add_f64 b time;
        add_side b side;
        Binio.add_i64 b port;
        Binio.add_f64 b excess;
        Binio.add_i64 b victims
    | Capacity { time; side; port; capacity } ->
        Binio.add_u8 b 6;
        Binio.add_f64 b time;
        add_side b side;
        Binio.add_i64 b port;
        Binio.add_f64 b capacity
    | Dispatch { time; pending } ->
        Binio.add_u8 b 7;
        Binio.add_f64 b time;
        Binio.add_i64 b pending

  (* --- pair records ---

     One WAL record may hold an arrival and the decision that follows it.
     The arrival's fields are stored once, then what the decision adds:
     code 9 (admitted) [bw], [sigma] and the shard trailer; code 10
     (refused) [reason], [port], [headroom] and the shard trailer; code 11
     (reshaped) [profile], [revised] and the shard trailer.  Decoding
     expands the record back into both events, so the decision must carry
     the arrival's time and id, and an Accept or Reshape its request
     fields, all bit for bit.  Trace sinks never write these codes. *)

  let same a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

  let encode_pair b ~arrival (decision : Event.t) =
    match arrival with
    | Event.Arrival a -> (
        let add_arrival () =
          add_arrival b ~time:a.time ~seq:a.seq ~id:a.id ~ingress:a.ingress ~egress:a.egress
            ~volume:a.volume ~ts:a.ts ~tf:a.tf ~max_rate:a.max_rate
        in
        let request ~time ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate =
          same time a.time && id = a.id && ingress = a.ingress && egress = a.egress
          && same volume a.volume && same ts a.ts && same tf a.tf && same max_rate a.max_rate
        in
        match decision with
        | Accept { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma; shard }
          when request ~time ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate ->
            Binio.add_u8 b 9;
            add_arrival ();
            Binio.add_f64 b bw;
            Binio.add_f64 b sigma;
            add_shard b shard;
            true
        | Reject { time; id; reason; port; headroom; shard } when same time a.time && id = a.id
          ->
            Binio.add_u8 b 10;
            add_arrival ();
            add_refusal b ~reason ~port ~headroom ~shard;
            true
        | Reshape { time; id; ingress; egress; volume; ts; tf; max_rate; profile; revised; shard }
          when request ~time ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate ->
            Binio.add_u8 b 11;
            add_arrival ();
            add_reshaping b ~profile ~revised ~shard;
            true
        | _ -> false)
    | _ -> false

  (* Cursor-style reader over a body payload; any out-of-bounds read is
     reported as corruption (the frame CRC already vouched for the bytes,
     so a short body is a layout error, not a torn record). *)
  exception Short

  (* A body holds one event, or two for a pair code. *)
  let decode_events s =
    let pos = ref 0 in
    let len = String.length s in
    let need n = if !pos + n > len then raise Short in
    let u8 () =
      need 1;
      let v = Binio.get_u8 s !pos in
      incr pos;
      v
    in
    let i64 () =
      need 8;
      let v = Binio.get_i64 s !pos in
      pos := !pos + 8;
      v
    in
    let f64 () =
      need 8;
      let v = Binio.get_f64 s !pos in
      pos := !pos + 8;
      v
    in
    let str () =
      need 4;
      let n = Binio.get_u32 s !pos in
      pos := !pos + 4;
      need n;
      let v = String.sub s !pos n in
      pos := !pos + n;
      v
    in
    let side () =
      match u8 () with
      | 0 -> Event.Ingress
      | 1 -> Event.Egress
      | n -> failwith (Printf.sprintf "unknown side code %d" n)
    in
    (* End-of-body means the record predates shard ids. *)
    let shard () =
      if !pos = len then None
      else
        match u8 () with
        | 1 -> Some (i64 ())
        | n -> failwith (Printf.sprintf "unknown shard tag %d" n)
    in
    let refusal ~time ~id =
      let reason = str () in
      let port =
        match u8 () with
        | 0 -> None
        | _ ->
            let s = side () in
            let p = i64 () in
            Some (s, p)
      in
      let headroom = match u8 () with 0 -> None | _ -> Some (f64 ()) in
      let shard = shard () in
      Event.Reject { time; id; reason; port; headroom; shard }
    in
    let reshaping ~time ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate =
      let triples () =
        let n = i64 () in
        if n < 0 then failwith "negative profile length";
        Array.init n (fun _ ->
            let from_ = f64 () in
            let until = f64 () in
            let rate = f64 () in
            (from_, until, rate))
      in
      let profile = triples () in
      let nrev = i64 () in
      if nrev < 0 then failwith "negative revision count";
      let revised =
        Array.init nrev (fun _ ->
            let rid = i64 () in
            let segs = triples () in
            (rid, segs))
      in
      let shard = shard () in
      Event.Reshape { time; id; ingress; egress; volume; ts; tf; max_rate; profile; revised; shard }
    in
    let evs =
      match u8 () with
      | (1 | 9 | 10 | 11) as code -> (
          let time = f64 () in
          let seq = i64 () in
          let id = i64 () in
          let ingress = i64 () in
          let egress = i64 () in
          let volume = f64 () in
          let ts = f64 () in
          let tf = f64 () in
          let max_rate = f64 () in
          let arrival = Event.Arrival { time; seq; id; ingress; egress; volume; ts; tf; max_rate } in
          match code with
          | 1 -> (arrival, None)
          | 9 ->
              let bw = f64 () in
              let sigma = f64 () in
              let shard = shard () in
              ( arrival,
                Some
                  (Event.Accept
                     { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma; shard }) )
          | 10 -> (arrival, Some (refusal ~time ~id))
          | _ ->
              (arrival, Some (reshaping ~time ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate)))
      | 2 ->
          let time = f64 () in
          let id = i64 () in
          let ingress = i64 () in
          let egress = i64 () in
          let volume = f64 () in
          let ts = f64 () in
          let tf = f64 () in
          let max_rate = f64 () in
          let bw = f64 () in
          let sigma = f64 () in
          let shard = shard () in
          (Event.Accept { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma; shard }, None)
      | 3 ->
          let time = f64 () in
          let id = i64 () in
          (refusal ~time ~id, None)
      | 4 ->
          let time = f64 () in
          let id = i64 () in
          let bw = f64 () in
          let shard = shard () in
          (Event.Preempt { time; id; bw; shard }, None)
      | 8 ->
          let time = f64 () in
          let id = i64 () in
          let ingress = i64 () in
          let egress = i64 () in
          let volume = f64 () in
          let ts = f64 () in
          let tf = f64 () in
          let max_rate = f64 () in
          (reshaping ~time ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate, None)
      | 5 ->
          let time = f64 () in
          let side = side () in
          let port = i64 () in
          let excess = f64 () in
          let victims = i64 () in
          (Event.Shed { time; side; port; excess; victims }, None)
      | 6 ->
          let time = f64 () in
          let side = side () in
          let port = i64 () in
          let capacity = f64 () in
          (Event.Capacity { time; side; port; capacity }, None)
      | 7 ->
          let time = f64 () in
          let pending = i64 () in
          (Event.Dispatch { time; pending }, None)
      | n -> failwith (Printf.sprintf "unknown event code %d" n)
    in
    if !pos <> len then failwith "trailing bytes in event body";
    evs

  let decode_with f s =
    match decode_events s with
    | evs -> f evs
    | exception Short -> Error "event body too short"
    | exception Failure msg -> Error msg

  let decode_body =
    decode_with (function
      | ev, None -> Ok ev
      | _, Some _ -> Error "pair record where one event was expected")

  (* A WAL record body: one event, or an arrival and its decision. *)
  let of_record =
    decode_with (function ev, None -> Ok [ ev ] | ev, Some d -> Ok [ ev; d ])

  (* Bare body bytes, no frame — for embedding in an outer frame that
     supplies its own length and CRC (the WAL does this). *)
  let body_of ev =
    let b = Buffer.create 96 in
    encode_body b ev;
    Buffer.contents b

  let of_body = decode_body

  let encode b ev =
    let body = Buffer.create 96 in
    encode_body body ev;
    Frame.add b ~tag:frame_tag (Buffer.contents body)

  let decode s ~pos : t Codec.decoded =
    match Frame.decode s ~pos with
    | Incomplete -> Incomplete
    | Corrupt msg -> Corrupt msg
    | Value ((tag, body), next) ->
        if tag <> frame_tag then Corrupt (Printf.sprintf "unexpected frame tag %d" tag)
        else ( match decode_body body with Ok ev -> Value (ev, next) | Error msg -> Corrupt msg)
end
