(* Request-scoped tracing: one span per request, decomposed into the
   fixed serve-path stages.  Spans are deliberately flat — a record of
   stage durations, not a tree — because the serving plane has exactly
   one pipeline and a flat layout keeps the binary form fixed-size and
   the flight-recorder scan trivial.

   Timestamps come from {!now_ns}: [Unix.gettimeofday] clamped
   non-decreasing.  A span's [time] is a wall-clock instant and its stage
   durations share that base, so spans stay on the wall clock; the
   monotonic clock ([bechamel.monotonic_clock]) times [Obs.span]
   histograms, which carry no instant.  The clamp protects durations
   against small NTP steps; a leap backwards larger than a span simply
   truncates that span to zero. *)

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

let stage_of_name = function
  | "frame_decode" -> Some Frame_decode
  | "protocol_parse" -> Some Protocol_parse
  | "admit_search" -> Some Admit_search
  | "wal_append" -> Some Wal_append
  | "commit_fsync" -> Some Commit_fsync
  | "reply_write" -> Some Reply_write
  | _ -> None

type t = {
  id : int;
  conn : int;
  mutable req : int option;
  time : float;  (* wall-clock seconds when the span opened *)
  mutable total_ns : float;
  mutable probes : int;
  durs : float array;  (* ns per stage, indexed by stage_index *)
  mutable open_ns : float;  (* now_ns at open; not serialized *)
}

(* --- clock --- *)

let last_ns = ref 0.

let now_ns () =
  let t = Unix.gettimeofday () *. 1e9 in
  if t > !last_ns then last_ns := t;
  !last_ns

(* --- lifecycle --- *)

let next_id = ref 0

let start ~conn () =
  incr next_id;
  let n = now_ns () in
  {
    id = !next_id;
    conn;
    req = None;
    time = n /. 1e9;
    total_ns = 0.;
    probes = 0;
    durs = Array.make stage_count 0.;
    open_ns = n;
  }

let make ~id ~conn ~req ~time ~total_ns ~probes ~durs =
  if Array.length durs <> stage_count then invalid_arg "Span.make: need one duration per stage";
  { id; conn; req; time; total_ns; probes; durs = Array.copy durs; open_ns = time *. 1e9 }

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

(* --- wire forms ---

   Same shape as Event_codec: a JSONL object ("ev":"span") for debug
   traces, and a fixed-layout binary frame under its own tag so
   [replay-trace] and the WAL scanner keep auto-detecting records they
   should skip. *)

let frame_tag = 0x04

let to_json t =
  let open Json in
  let fields =
    [ ("ev", Str "span"); ("id", Num (float_of_int t.id)); ("conn", Num (float_of_int t.conn)) ]
    @ (match t.req with Some r -> [ ("req", Num (float_of_int r)) ] | None -> [])
    @ [
        ("t", Num t.time); ("total_ns", Num t.total_ns);
        ("probes", Num (float_of_int t.probes));
      ]
    @ List.map (fun s -> (stage_name s ^ "_ns", Num (duration t s))) all_stages
  in
  Json.to_string (Obj fields)

let ( let* ) r f = Result.bind r f

let field name conv json =
  match Option.bind (Json.member name json) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing or malformed field %S" name)

let of_json json =
  let* ev = field "ev" Json.to_str json in
  if ev <> "span" then Error ("not a span: ev=" ^ ev)
  else
    let* id = field "id" Json.to_int json in
    let* conn = field "conn" Json.to_int json in
    let req = Option.bind (Json.member "req" json) Json.to_int in
    let* time = field "t" Json.to_float json in
    let* total_ns = field "total_ns" Json.to_float json in
    let* probes = field "probes" Json.to_int json in
    let durs = Array.make stage_count 0. in
    let* () =
      List.fold_left
        (fun acc s ->
          let* () = acc in
          let* d = field (stage_name s ^ "_ns") Json.to_float json in
          durs.(stage_index s) <- d;
          Ok ())
        (Ok ()) all_stages
    in
    Ok (make ~id ~conn ~req ~time ~total_ns ~probes ~durs)

(* A cheap pre-parse test so trace readers can skip span lines without
   a full JSON parse on every event line. *)
let looks_like_json_span line =
  let n = String.length line in
  let rec find i =
    if i + 11 > n then false
    else if String.sub line i 11 = {|"ev":"span"|} then true
    else find (i + 1)
  in
  find 0

module Jsonl = struct
  type nonrec t = t

  let name = "span-jsonl"

  let encode b t =
    Buffer.add_string b (to_json t);
    Buffer.add_char b '\n'

  let decode s ~pos : t Codec.decoded =
    match String.index_from_opt s pos '\n' with
    | None -> Incomplete
    | Some nl -> (
        match Result.bind (Json.parse (String.sub s pos (nl - pos))) of_json with
        | Ok sp -> Value (sp, nl + 1)
        | Error msg -> Corrupt msg)
end

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

  let body_of t =
    let b = Buffer.create 96 in
    encode_body b t;
    Buffer.contents b

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

let sniff_decode s ~pos : t Codec.decoded =
  if pos < String.length s && Frame.is_binary s.[pos] then Binary.decode s ~pos
  else Jsonl.decode s ~pos
