(* Per-connection protocol state.  See session.mli. *)

module Span = Gridbw_obs.Span

type t = {
  id : int;
  peer : string;
  decoder : Frame.decoder;
  timed : bool;
  (* Encoded replies; the first [written] bytes are already on the wire. *)
  out : Buffer.t;
  (* One reply's payload, rendered here and then framed into [out]. *)
  reply : Buffer.t;
  mutable written : int;
  mutable closing : bool;
  mutable frames_in : int;
  (* Stage durations of the most recent completed message (valid right
     after [next] returns [Some _] with [timed]). *)
  mutable decode_ns : float;
  mutable parse_ns : float;
}

(* A reply buffer that grew past this (a large stats dump) goes back to
   this size after use. *)
let reply_capacity = 512

let create ?max_frame ?(timed = false) ~id ~peer () =
  {
    id;
    peer;
    decoder = Frame.decoder ?max_frame ();
    timed;
    out = Buffer.create 4096;
    reply = Buffer.create reply_capacity;
    written = 0;
    closing = false;
    frames_in = 0;
    decode_ns = 0.;
    parse_ns = 0.;
  }

let id t = t.id
let peer t = t.peer
let feed t s = Frame.feed t.decoder s
let feed_sub t buf off len = Frame.feed_sub t.decoder buf off len

type incoming =
  | Request of Protocol.request
  | Undecodable of Protocol.response
  | Broken of Protocol.response

let next t =
  if t.closing then None
  else
    let t0 = if t.timed then Span.now_ns () else 0. in
    match Frame.next t.decoder with
    | Ok None -> None
    | Ok (Some payload) -> (
        let t1 = if t.timed then Span.now_ns () else 0. in
        if t.timed then t.decode_ns <- t1 -. t0;
        t.frames_in <- t.frames_in + 1;
        match Protocol.decode_request payload with
        | Ok r ->
            if t.timed then t.parse_ns <- Span.now_ns () -. t1;
            Some (Request r)
        | Error e ->
            if t.timed then t.parse_ns <- Span.now_ns () -. t1;
            Some (Undecodable (Protocol.error_of_decode e)))
    | Error e ->
        t.closing <- true;
        Some
          (Broken
             (Protocol.Error { code = Protocol.Bad_frame; message = Frame.describe e }))

(* The reply is rendered into [t.reply] and framed from there into
   [t.out]: no payload string, no framed copy.  It goes in the form the
   client last spoke: sending one binary frame switches the response
   stream to binary, no handshake needed. *)
let queue t resp =
  Buffer.clear t.reply;
  Protocol.add_response t.reply resp;
  Frame.add_buffer_as (Frame.last_format t.decoder) t.out t.reply;
  if Buffer.length t.reply > reply_capacity then Buffer.reset t.reply

let unwritten t = Buffer.length t.out - t.written
let pending t = unwritten t > 0

let out_chunk t = Buffer.sub t.out t.written (unwritten t)

let blit_out t dst =
  let n = Int.min (Bytes.length dst) (unwritten t) in
  Buffer.blit t.out t.written dst 0 n;
  n

(* A buffer that held more than this when it compacts goes back to its
   first 4 KiB, as {!Frame}'s decoder does; a smaller one keeps its
   storage, so steady rounds do not regrow it. *)
let keep_capacity = 256 * 1024

(* Drop the written prefix once it is at least half the buffer (always
   when everything went out), so a connection that never fully drains
   does not keep its history. *)
let wrote t n =
  if n < 0 || n > unwritten t then invalid_arg "Session.wrote";
  t.written <- t.written + n;
  if 2 * t.written >= Buffer.length t.out then begin
    let rest = Buffer.sub t.out t.written (unwritten t) in
    if Buffer.length t.out > keep_capacity then Buffer.reset t.out else Buffer.clear t.out;
    Buffer.add_string t.out rest;
    t.written <- 0
  end

let stage_ns t = (t.decode_ns, t.parse_ns)
let want_close t = t.closing
let frames_in t = t.frames_in
