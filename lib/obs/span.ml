(* Request-scoped tracing: one span per request, decomposed into the
   fixed serve-path stages.  Spans are deliberately flat — a record of
   stage durations, not a tree — because the serving plane has exactly
   one pipeline and a flat layout keeps the binary form fixed-size and
   the flight-recorder scan trivial.

   Durations come from {!now_ns}, the monotonic nanosecond clock
   ([bechamel.monotonic_clock]) that also times [Obs.span] histograms.
   A span's [time] is one wall-clock read at open, which only orders
   spans (the flight recorder's scan). *)

module Codec = Gridbw_wire.Codec
module Frame = Gridbw_wire.Frame
module Binio = Gridbw_wire.Binio

type stage =
  | Frame_decode
  | Protocol_parse
  | Admit_search
  | Wal_append
  | Commit_fsync
  | Reply_write

let all_stages =
  [ Frame_decode; Protocol_parse; Admit_search; Wal_append; Commit_fsync; Reply_write ]

let stage_count = 6

let stage_index = function
  | Frame_decode -> 0
  | Protocol_parse -> 1
  | Admit_search -> 2
  | Wal_append -> 3
  | Commit_fsync -> 4
  | Reply_write -> 5

let stage_name = function
  | Frame_decode -> "frame_decode"
  | Protocol_parse -> "protocol_parse"
  | Admit_search -> "admit_search"
  | Wal_append -> "wal_append"
  | Commit_fsync -> "commit_fsync"
  | Reply_write -> "reply_write"

type t = {
  id : int;
  conn : int;
  mutable req : int option;
  time : float;  (* wall-clock seconds when the span opened *)
  mutable total_ns : float;
  mutable probes : int;
  durs : float array;  (* ns per stage, indexed by stage_index *)
  mutable open_ns : float;  (* now_ns at open; not serialized, 0 on a rebuilt span *)
}

(* --- clock --- *)

let now_ns () = Int64.to_float (Monotonic_clock.now ())

(* --- lifecycle --- *)

let next_id = ref 0

let start ~conn () =
  incr next_id;
  {
    id = !next_id;
    conn;
    req = None;
    time = Unix.gettimeofday ();
    total_ns = 0.;
    probes = 0;
    durs = Array.make stage_count 0.;
    open_ns = now_ns ();
  }

let make ~id ~conn ~req ~time ~total_ns ~probes ~durs =
  if Array.length durs <> stage_count then invalid_arg "Span.make: need one duration per stage";
  { id; conn; req; time; total_ns; probes; durs = Array.copy durs; open_ns = 0. }

let record t stage ns = t.durs.(stage_index stage) <- t.durs.(stage_index stage) +. ns

let timed t stage f =
  match t with
  | None -> f ()
  | Some sp ->
      let t0 = now_ns () in
      Fun.protect ~finally:(fun () -> record sp stage (now_ns () -. t0)) f

let add_probes t n = t.probes <- t.probes + n
let set_req t id = t.req <- Some id
let backdate t ns = if ns > 0. then t.open_ns <- t.open_ns -. ns
let finish t = t.total_ns <- now_ns () -. t.open_ns

(* --- accessors --- *)

let id t = t.id
let conn t = t.conn
let req t = t.req
let time t = t.time
let total_ns t = t.total_ns
let probes t = t.probes
let duration t stage = t.durs.(stage_index stage)
let stage_sum t = Array.fold_left ( +. ) 0. t.durs

let pp ppf t =
  Format.fprintf ppf "span %d conn=%d%s t=%.6f total=%.0fns probes=%d" t.id t.conn
    (match t.req with Some r -> Printf.sprintf " r%d" r | None -> "")
    t.time t.total_ns t.probes;
  List.iter
    (fun s ->
      let d = duration t s in
      if d > 0. then Format.fprintf ppf " %s=%.0fns" (stage_name s) d)
    all_stages

(* --- wire form ---

   A fixed-layout binary frame under its own tag, so readers of mixed
   traces ([replay-trace], [trace-report]) tell span records from event
   records by the frame tag alone. *)

let frame_tag = 0x04

module Binary = struct
  type nonrec t = t

  let name = "span-binary"

  let encode_body b t =
    Binio.add_i64 b t.id;
    Binio.add_i64 b t.conn;
    (match t.req with
    | None -> Binio.add_u8 b 0
    | Some r ->
        Binio.add_u8 b 1;
        Binio.add_i64 b r);
    Binio.add_f64 b t.time;
    Binio.add_f64 b t.total_ns;
    Binio.add_i64 b t.probes;
    Array.iter (Binio.add_f64 b) t.durs

  exception Short

  let decode_body s =
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
    try
      let id = i64 () in
      let conn = i64 () in
      let req = match u8 () with 0 -> None | _ -> Some (i64 ()) in
      let time = f64 () in
      let total_ns = f64 () in
      let probes = i64 () in
      let durs = Array.init stage_count (fun _ -> f64 ()) in
      if !pos <> len then Error "trailing bytes in span body"
      else Ok (make ~id ~conn ~req ~time ~total_ns ~probes ~durs)
    with Short -> Error "span body too short"

  let of_body = decode_body

  let encode b t =
    let body = Buffer.create 96 in
    encode_body body t;
    Frame.add b ~tag:frame_tag (Buffer.contents body)

  let decode s ~pos : t Codec.decoded =
    match Frame.decode s ~pos with
    | Incomplete -> Incomplete
    | Corrupt msg -> Corrupt msg
    | Value ((tag, body), next) ->
        if tag <> frame_tag then Corrupt (Printf.sprintf "unexpected frame tag %d" tag)
        else (match decode_body body with Ok sp -> Value (sp, next) | Error msg -> Corrupt msg)
end
