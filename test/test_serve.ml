(* The serving subsystem (lib/serve): framing codec, versioned protocol,
   per-connection session machine, admission semantics (idempotency,
   durability, recovery), and a live in-process daemon driven by the
   closed-loop load generator over a real Unix socket. *)

open Helpers
module Frame = Gridbw_serve.Frame
module Protocol = Gridbw_serve.Protocol
module Session = Gridbw_serve.Session
module Admission = Gridbw_serve.Admission
module Daemon = Gridbw_serve.Daemon
module Loadgen = Gridbw_serve.Loadgen
module Store = Gridbw_store.Store
module Wal = Gridbw_store.Wal
module Obs = Gridbw_obs.Obs
module Json = Gridbw_obs.Json
module Metrics = Gridbw_obs.Metrics
module Policy = Gridbw_core.Policy
module Request = Gridbw_request.Request
module Decisions = Gridbw_serve.Decisions
module Online = Gridbw_core.Online
module Types = Gridbw_core.Types
module Allocation = Gridbw_alloc.Allocation
module Event = Gridbw_obs.Event

let pp_request ppf r = Format.pp_print_string ppf (Protocol.encode_request r)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_tmpdir f =
  let dir = Filename.temp_file "gridbw-serve" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> if Sys.file_exists dir then rm_rf dir) (fun () -> f dir)

(* Deterministic store config: huge batch, sync delay out of reach, so
   only explicit flushes commit. *)
let store_config () =
  { Store.default_config with wal = { Wal.default_config with Wal.batch = 1000; delay = 3600. } }

(* --- frame codec --- *)

let frame_encode_shape () =
  Alcotest.(check string) "frame layout" "3 abc\n" (Frame.encode "abc");
  Alcotest.(check string) "empty payload" "0 \n" (Frame.encode "")

let byte_string_gen =
  QCheck2.Gen.(string_size ~gen:(map Char.chr (int_range 0 255)) (int_range 0 30))

let prop_frame_chunked_roundtrip =
  qcase ~count:300 "frame: payload lists survive chunked decoding"
    QCheck2.Gen.(
      triple (list_size (int_range 0 8) byte_string_gen) (int_range 1 7) (int_range 0 1_000_000))
    (fun (payloads, chunk, seed) ->
      let wire = String.concat "" (List.map Frame.encode payloads) in
      let n = String.length wire in
      let decode feed =
        let d = Frame.decoder () in
        let out = ref [] in
        let rec drain () =
          match Frame.next d with
          | Ok (Some p) ->
              out := p :: !out;
              drain ()
          | Ok None -> ()
          | Error e -> Alcotest.failf "unexpected frame error: %s" (Frame.describe e)
        in
        let i = ref 0 in
        while !i < n do
          let len = feed d !i in
          i := !i + len;
          drain ()
        done;
        drain ();
        List.rev !out = payloads && Frame.buffered d = 0
      in
      (* the same wire, read the way the daemon reads it: random-length
         slices of a larger buffer, at random offsets, with bytes that
         are not part of the slice on either side *)
      let st = Random.State.make [| seed |] in
      let buf = Bytes.make (n + 64) '\xB1' in
      decode (fun d i ->
          let len = Int.min chunk (n - i) in
          Frame.feed d (String.sub wire i len);
          len)
      && decode (fun d i ->
             let len = 1 + Random.State.int st (Int.min 32 (n - i)) in
             let off = Random.State.int st (Bytes.length buf - len + 1) in
             Bytes.blit_string wire i buf off len;
             Frame.feed_sub d buf off len;
             len))

let frame_truncated_prefix_waits () =
  let d = Frame.decoder () in
  Frame.feed d "12";
  Alcotest.(check bool) "digits alone: need more bytes" true (Frame.next d = Ok None);
  Frame.feed d " ";
  Alcotest.(check bool) "payload missing: need more bytes" true (Frame.next d = Ok None);
  Frame.feed d "abcdefghijkl\n";
  Alcotest.(check bool) "completed frame decodes" true (Frame.next d = Ok (Some "abcdefghijkl"))

let frame_errors_are_typed_and_sticky () =
  (* not a digit *)
  let d = Frame.decoder () in
  Frame.feed d "x3 abc\n";
  (match Frame.next d with
  | Error (Frame.Malformed_length _) -> ()
  | other ->
      Alcotest.failf "expected Malformed_length, got %s"
        (match other with
        | Ok _ -> "Ok"
        | Error e -> Frame.describe e));
  (* the decoder stays broken even when good bytes follow *)
  Frame.feed d (Frame.encode "fine");
  Alcotest.(check bool) "decoder stays poisoned" true
    (match Frame.next d with Error (Frame.Malformed_length _) -> true | _ -> false);
  (* length field absurdly long *)
  let d = Frame.decoder () in
  Frame.feed d "12345678901 ";
  Alcotest.(check bool) "overlong length field" true
    (match Frame.next d with Error (Frame.Malformed_length _) -> true | _ -> false);
  (* declared length over the cap *)
  let d = Frame.decoder ~max_frame:10 () in
  Frame.feed d "11 aaaaaaaaaaa\n";
  Alcotest.(check bool) "oversized" true (Frame.next d = Error (Frame.Oversized 11));
  (* missing terminator *)
  let d = Frame.decoder () in
  Frame.feed d "3 abcX";
  Alcotest.(check bool) "missing terminator" true (Frame.next d = Error Frame.Missing_terminator)

let frame_blocking_io () =
  let path = Filename.temp_file "gridbw-frame" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      Frame.output oc "hello";
      Frame.output oc "";
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Alcotest.(check bool) "first frame" true (Frame.input ic = Ok "hello");
          Alcotest.(check bool) "second frame" true (Frame.input ic = Ok "");
          Alcotest.(check bool) "eof" true (Frame.input ic = Error `Eof));
      (* the client side reads text only: a binary frame is a typed error *)
      let oc = open_out_bin path in
      output_string oc (Frame.encode_as Frame.Binary "hello");
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          Alcotest.(check bool) "binary frame: Malformed_length" true
            (match Frame.input ic with
            | Error (`Frame (Frame.Malformed_length _)) -> true
            | _ -> false)))

(* Bytes allocated by [f ()]. *)
let allocated f =
  let v, words = words_allocated f in
  (v, words *. float_of_int (Sys.word_size / 8))

(* A client that sends one large frame a byte at a time must cost the
   decoder O(frame) bytes, not a copy of the backlog per byte. *)
let frame_drip_fed_is_linear () =
  let payload = String.init (256 * 1024) (fun i -> Char.chr (32 + (i mod 90))) in
  let singles = Array.init 256 (fun c -> String.make 1 (Char.chr c)) in
  List.iter
    (fun fmt ->
      let wire = Frame.encode_as fmt payload in
      let d = Frame.decoder () in
      let decoded, bytes =
        allocated (fun () ->
            let got = ref None in
            String.iter
              (fun c ->
                Frame.feed d singles.(Char.code c);
                match Frame.next d with
                | Ok None -> ()
                | Ok (Some p) -> got := Some p
                | Error e -> Alcotest.failf "frame error: %s" (Frame.describe e))
              wire;
            !got)
      in
      let name = match fmt with Frame.Text -> "text" | Frame.Binary -> "binary" in
      Alcotest.(check bool) (name ^ ": frame decodes") true (decoded = Some payload);
      Alcotest.(check int) (name ^ ": nothing left") 0 (Frame.buffered d);
      if bytes > 8. *. float_of_int (String.length wire) then
        Alcotest.failf "%s: dripping a %d-byte frame allocated %.0f bytes" name
          (String.length wire) bytes)
    [ Frame.Text; Frame.Binary ]

(* --- protocol codec --- *)

let fin = QCheck2.Gen.float_range (-1e12) 1e12
let posf = QCheck2.Gen.float_range 1e-6 1e12

let request_gen =
  QCheck2.Gen.(
    oneof
      [
        (let* id = nat and* ingress = nat and* egress = nat in
         let* volume = posf and* ts = fin and* tf = fin and* max_rate = posf in
         return (Protocol.Admit { id; ingress; egress; volume; ts; tf; max_rate }));
        map (fun id -> Protocol.Query { id }) nat;
        map (fun id -> Protocol.Cancel { id }) nat;
        return Protocol.Stats;
        return Protocol.Shutdown;
      ])

let prop_request_roundtrip =
  qcase ~count:400 "protocol: every request constructor round-trips" request_gen
    (fun r -> Protocol.decode_request (Protocol.encode_request r) = Ok r)

(* Floats whose printing takes every branch of [Json.num_to_string]:
   -0, subnormals, integral values either side of 1e15 and 2^53, and
   plain fractions. *)
let wide_float =
  QCheck2.Gen.(
    oneof
      [
        fin;
        oneofl
          [ 0.; -0.; 5e-324; -2.2250738585072009e-308; 1e15; -1e15; 999999999999999.;
            0x1p53; 0x1p53 -. 1.; 1e21; 1.7976931348623157e308; 0.1 ];
        map (fun m -> Float.ldexp (float_of_int m) (-1074)) (int_range 1 ((1 lsl 52) - 1));
        map (fun k -> float_of_int k *. 1e15) (int_range (-1_000_000) 1_000_000);
      ])

let wide_id =
  QCheck2.Gen.(
    oneof [ nat; int_range 0 ((1 lsl 53) - 1); oneofl [ 0; (1 lsl 53) - 1; 999_999_999_999_999 ] ])

(* Strings heavy in the bytes JSON must escape. *)
let text_gen =
  QCheck2.Gen.(
    string_size
      ~gen:
        (oneof
           [
             oneofl [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '\127'; '/'; 'a' ];
             map Char.chr (int_range 0 255);
           ])
      (int_range 0 30))

let response_gen =
  QCheck2.Gen.(
    let window = triple wide_float wide_float wide_float in
    oneof
      [
        (let* id = wide_id and* bw, sigma, tau = window in
         return (Protocol.Admitted { id; bw; sigma; tau }));
        (let* id = wide_id and* reason = text_gen in
         return (Protocol.Rejected { id; reason }));
        (let* id = wide_id in
         let* disposition =
           oneof
             [
               return Protocol.Unknown;
               map (fun (bw, sigma, tau) -> Protocol.Active { bw; sigma; tau }) window;
               map (fun (bw, sigma, tau) -> Protocol.Done { bw; sigma; tau }) window;
               map (fun reason -> Protocol.Refused { reason }) text_gen;
               return Protocol.Cancelled;
             ]
         in
         return (Protocol.Status { id; disposition }));
        map (fun id -> Protocol.Cancel_ok { id }) wide_id;
        (let* id = wide_id and* reason = text_gen in
         return (Protocol.Cancel_failed { id; reason }));
        (* stats payloads embed raw Prometheus text, newlines included *)
        map (fun text -> Protocol.Stats_text text) text_gen;
        map (fun records -> Protocol.Goodbye { records }) wide_id;
        (let* code =
           oneofl [ Protocol.Bad_frame; Protocol.Bad_json; Protocol.Bad_version; Protocol.Bad_request ]
         and* message = text_gen in
         return (Protocol.Error { code; message }));
      ])

let prop_response_roundtrip =
  qcase ~count:400 "protocol: every response constructor round-trips" response_gen
    (fun r -> Protocol.decode_response (Protocol.encode_response r) = Ok r)

(* The reply's object form, as the daemon built it before replies were
   rendered directly: the oracle for the renderer's bytes. *)
let response_tree =
  let num f = Json.Num f and int i = Json.Num (float_of_int i) and str s = Json.Str s in
  let obj re fields = Json.Obj (("v", int Protocol.version) :: ("re", str re) :: fields) in
  let window fields (bw, sigma, tau) =
    fields @ [ ("bw", num bw); ("sigma", num sigma); ("tau", num tau) ]
  in
  function
  | Protocol.Admitted { id; bw; sigma; tau } -> obj "admitted" (window [ ("id", int id) ] (bw, sigma, tau))
  | Protocol.Rejected { id; reason } -> obj "rejected" [ ("id", int id); ("reason", str reason) ]
  | Protocol.Status { id; disposition } ->
      let fields =
        match disposition with
        | Protocol.Unknown -> [ ("state", str "unknown") ]
        | Protocol.Active { bw; sigma; tau } -> window [ ("state", str "active") ] (bw, sigma, tau)
        | Protocol.Done { bw; sigma; tau } -> window [ ("state", str "done") ] (bw, sigma, tau)
        | Protocol.Refused { reason } -> [ ("state", str "rejected"); ("reason", str reason) ]
        | Protocol.Cancelled -> [ ("state", str "cancelled") ]
      in
      obj "status" (("id", int id) :: fields)
  | Protocol.Cancel_ok { id } -> obj "cancelled" [ ("id", int id) ]
  | Protocol.Cancel_failed { id; reason } ->
      obj "cancel-failed" [ ("id", int id); ("reason", str reason) ]
  | Protocol.Stats_text text -> obj "stats" [ ("prometheus", str text) ]
  | Protocol.Goodbye { records } -> obj "goodbye" [ ("records", int records) ]
  | Protocol.Error { code; message } ->
      obj "error" [ ("code", str (Protocol.code_name code)); ("message", str message) ]

let prop_response_bytes_pinned =
  qcase ~count:2000 "protocol: replies are the bytes of their JSON object form" response_gen
    (fun r -> Protocol.encode_response r = Json.to_string (response_tree r))

let response_bytes_literal () =
  Alcotest.(check string) "admitted"
    {|{"v":1,"re":"admitted","id":7,"bw":0.10000000000000001,"sigma":-0,"tau":1000000000000000}|}
    (Protocol.encode_response (Protocol.Admitted { id = 7; bw = 0.1; sigma = -0.; tau = 1e15 }));
  Alcotest.(check string) "rejected"
    {|{"v":1,"re":"rejected","id":9007199254740991,"reason":"port \"0\"\\\n\u0001"}|}
    (Protocol.encode_response
       (Protocol.Rejected { id = (1 lsl 53) - 1; reason = "port \"0\"\\\n\001" }))

(* --- admit decode: the scan against the tree decoder --- *)

let id_literal =
  QCheck2.Gen.(
    oneof
      [
        map string_of_int nat;
        map string_of_int (int_range (-(1 lsl 53)) (1 lsl 53));
        oneofl
          [ "9007199254740991"; "9007199254740992"; "-9007199254740991"; "-9007199254740992";
            "9007199254740993"; "1e3"; "1E+2"; "1.5"; "-0"; "0.0"; "1e30"; "\"7\""; "null";
            "true"; "[1]"; "{}"; "+4"; ".5"; "0x10"; "1_0"; "-"; "" ];
      ])

let float_literal =
  QCheck2.Gen.(
    oneof
      [
        map Json.num_to_string wide_float;
        map (fun f -> Printf.sprintf "%.3e" f) fin;
        map (fun f -> Printf.sprintf "%.17G" f) wide_float;
        oneofl
          [ "1e5"; "-2.5E-3"; "1e999"; "-1e999"; "+1"; ".5"; "5."; "1e"; "--1"; "0x1p3"; "1e-400";
            "4.9e-324"; "1.7976931348623157e308"; "123456789012345678901234"; "\"1\""; "null";
            "[1]"; "false" ];
      ])

let ws_gen = QCheck2.Gen.oneofl [ ""; ""; ""; " "; "\n\t "; "\r" ]

(* An admit's fields as (raw key, raw value) pairs, then one of the
   mutations the scan must hand to the tree decoder. *)
let admit_payload_gen =
  QCheck2.Gen.(
    let* id = id_literal
    and* ingress = id_literal
    and* egress = id_literal
    and* vol = float_literal
    and* ts = float_literal
    and* tf = float_literal
    and* mx = float_literal in
    let fields =
      [ ("v", "1"); ("op", {|"admit"|}); ("id", id); ("in", ingress); ("out", egress);
        ("vol", vol); ("ts", ts); ("tf", tf); ("max", mx) ]
    in
    let* mutation = int_range 0 9 in
    let* fields =
      match mutation with
      | 0 -> return fields
      | 1 -> shuffle_l fields
      | 2 ->
          (* a repeated key *)
          let* i = int_range 0 8 and* v = float_literal in
          return (fields @ [ (fst (List.nth fields i), v) ])
      | 3 ->
          (* an unknown key *)
          let* k = oneofl [ "zz"; "ops"; "vv"; "i"; "maxx"; ""; "extra" ] in
          let* v = oneofl [ "1"; {|"x"|}; {|{"a":[1,2]}|}; "null" ] in
          return (fields @ [ (k, v) ])
      | 4 ->
          (* another version, or a version of another type *)
          let* v = oneofl [ "2"; "0"; "1.0"; "1.5"; "1e0"; {|"1"|}; "-1"; "null"; "9007199254740993" ] in
          return (List.map (fun (k, x) -> if k = "v" then (k, v) else (k, x)) fields)
      | 5 ->
          (* another verb, or "admit" spelled with an escape *)
          let* op =
            oneofl
              [ {|"query"|}; {|"admi"|}; {|"admitt"|}; {|"\u0061dmit"|}; "5"; {|"ADMIT"|}; {|"stats"|} ]
          in
          return (List.map (fun (k, x) -> if k = "op" then (k, op) else (k, x)) fields)
      | 6 ->
          (* a key with its first letter escaped *)
          let* i = int_range 0 8 in
          let escaped k = Printf.sprintf "\\u%04x%s" (Char.code k.[0]) (String.sub k 1 (String.length k - 1)) in
          return (List.mapi (fun j (k, x) -> if j = i then (escaped k, x) else (k, x)) fields)
      | 7 ->
          (* a key dropped *)
          let* i = int_range 0 8 in
          return (List.filteri (fun j _ -> j <> i) fields)
      | _ -> return fields (* 8 adds trailing bytes below *)
    in
    let* sep = ws_gen and* colon = ws_gen and* lead = ws_gen and* trail = ws_gen in
    let* tail = if mutation = 8 then oneofl [ " x"; "}"; ","; "\000"; " {}" ] else return "" in
    let body =
      String.concat ("," ^ sep)
        (List.map (fun (k, v) -> Printf.sprintf "%s\"%s\"%s:%s%s" sep k colon colon v) fields)
    in
    return (Printf.sprintf "%s{%s%s}%s%s" lead body trail trail tail))

let agrees p = Protocol.decode_request p = Protocol.decode_request_tree p

let prop_admit_decode_differential =
  qcase ~count:3000 "protocol: admit scan decodes as the tree decoder does" admit_payload_gen agrees

let admit_decode_cut_at_every_byte () =
  let p =
    Protocol.encode_request
      (Protocol.Admit
         { id = (1 lsl 53) - 1; ingress = 3; egress = 0; volume = 1e-7; ts = 0.25; tf = 1.5e300;
           max_rate = 123456789.123 })
  in
  Alcotest.(check bool) "whole payload" true (agrees p);
  for n = 0 to String.length p do
    let cut = String.sub p 0 n in
    if not (agrees cut) then Alcotest.failf "decoders differ on the prefix %S" cut;
    if n < String.length p then begin
      let gap = String.sub p 0 n ^ String.sub p (n + 1) (String.length p - n - 1) in
      if not (agrees gap) then Alcotest.failf "decoders differ with byte %d removed: %S" n gap
    end
  done

let protocol_rejects_bad_payloads () =
  let is_bad_json = function Result.Error (Protocol.Bad_json_e _) -> true | _ -> false in
  let is_bad_req = function Result.Error (Protocol.Bad_request_e _) -> true | _ -> false in
  Alcotest.(check bool) "not json" true (is_bad_json (Protocol.decode_request "{not json"));
  Alcotest.(check bool) "not an object" true (is_bad_json (Protocol.decode_request "[1,2]"));
  Alcotest.(check bool) "wrong version" true
    (Protocol.decode_request {|{"v":2,"op":"stats"}|} = Result.Error (Protocol.Bad_version_e 2));
  Alcotest.(check bool) "missing version" true
    (is_bad_req (Protocol.decode_request {|{"op":"stats"}|}));
  Alcotest.(check bool) "unknown verb" true
    (is_bad_req (Protocol.decode_request {|{"v":1,"op":"frobnicate"}|}));
  Alcotest.(check bool) "missing field" true
    (is_bad_req (Protocol.decode_request {|{"v":1,"op":"admit","id":3}|}));
  Alcotest.(check bool) "ill-typed field" true
    (is_bad_req (Protocol.decode_request {|{"v":1,"op":"query","id":"three"}|}));
  (* decode errors map onto typed error responses *)
  match Protocol.error_of_decode (Protocol.Bad_version_e 9) with
  | Protocol.Error { code = Protocol.Bad_version; _ } -> ()
  | _ -> Alcotest.fail "expected a bad-version error response"

(* --- session --- *)

(* [feed_sub] only reads its slice, so the string is lent without a copy
   (the allocation budgets below measure around this). *)
let feed s str = Session.feed_sub s (Bytes.unsafe_of_string str) 0 (String.length str)

let session_keeps_going_after_bad_payload () =
  let s = Session.create ~id:0 ~peer:"test" () in
  feed s (Frame.encode "{broken json");
  (match Session.next s with
  | Some (Session.Undecodable (Protocol.Error { code = Protocol.Bad_json; _ })) -> ()
  | _ -> Alcotest.fail "expected an undecodable-payload error");
  Alcotest.(check bool) "connection survives payload errors" false (Session.want_close s);
  feed s (Frame.encode (Protocol.encode_request Protocol.Stats));
  (match Session.next s with
  | Some (Session.Request Protocol.Stats) -> ()
  | _ -> Alcotest.fail "expected the stats request")

let session_closes_on_broken_framing () =
  let s = Session.create ~id:1 ~peer:"test" () in
  feed s "garbage that is not a frame\n";
  (match Session.next s with
  | Some (Session.Broken (Protocol.Error { code = Protocol.Bad_frame; _ })) -> ()
  | _ -> Alcotest.fail "expected a broken-framing error");
  Alcotest.(check bool) "session wants to close" true (Session.want_close s);
  Alcotest.(check bool) "no further messages" true (Session.next s = None)

let session_output_is_framed () =
  let s = Session.create ~id:2 ~peer:"test" () in
  let resp = Protocol.Goodbye { records = 42 } in
  Session.queue s resp;
  Alcotest.(check bool) "output pending" true (Session.pending s);
  let d = Frame.decoder () in
  Frame.feed d (Session.out_chunk s);
  (match Frame.next d with
  | Ok (Some payload) ->
      Alcotest.(check bool) "payload decodes back" true
        (Protocol.decode_response payload = Ok resp)
  | _ -> Alcotest.fail "expected one complete frame");
  Session.wrote s (String.length (Session.out_chunk s));
  Alcotest.(check bool) "drained" false (Session.pending s)

(* The daemon writes whatever the socket takes: interleave queueing with
   partial writes and check the bytes that left are exactly the framed
   replies, in order. *)
let prop_session_partial_writes =
  qcase ~count:300 "session: partial writes deliver the framed replies in order"
    QCheck2.Gen.(
      pair
        (list_size (int_range 1 40)
           (pair response_gen (pair (int_range 0 3) (float_bound_inclusive 1.))))
        (int_range 1 64))
    (fun (steps, window) ->
      (* Drain through [out_chunk], or through [blit_out] into a buffer
         of [window] bytes as the daemon does. *)
      let deliver ~chunk =
        let s = Session.create ~id:3 ~peer:"test" () in
        let sent = Buffer.create 256 and expected = Buffer.create 256 in
        let write frac =
          let c = chunk s in
          let n = int_of_float (frac *. float_of_int (String.length c)) in
          Buffer.add_string sent (String.sub c 0 n);
          Session.wrote s n
        in
        List.iter
          (fun (resp, (writes, frac)) ->
            Session.queue s resp;
            Buffer.add_string expected (Frame.encode (Protocol.encode_response resp));
            for _ = 1 to writes do
              write frac
            done)
          steps;
        let past = String.length (Session.out_chunk s) + 1 in
        (match Session.wrote s past with
        | () -> Alcotest.fail "wrote past the pending bytes"
        | exception Invalid_argument _ -> ());
        while Session.pending s do
          write 1.
        done;
        Buffer.contents sent = Buffer.contents expected
      in
      let dst = Bytes.create window in
      deliver ~chunk:Session.out_chunk
      && deliver ~chunk:(fun s -> Bytes.sub_string dst 0 (Session.blit_out s dst)))

(* A peer that pipelines requests and never reads: queueing must append,
   not re-copy everything still pending. *)
let session_queue_is_linear () =
  let replies = List.init 10_000 (fun id -> Protocol.Rejected { id; reason = "port-saturated" }) in
  let framed, encode_bytes =
    allocated (fun () ->
        List.fold_left
          (fun n r -> n + String.length (Frame.encode (Protocol.encode_response r)))
          0 replies)
  in
  let s = Session.create ~id:4 ~peer:"test" () in
  let (), queue_bytes = allocated (fun () -> List.iter (Session.queue s) replies) in
  Alcotest.(check int) "all replies pending" framed (String.length (Session.out_chunk s));
  if queue_bytes > encode_bytes +. (4. *. float_of_int framed) then
    Alcotest.failf "queueing %d framed bytes allocated %.0f bytes (encoding alone: %.0f)" framed
      queue_bytes encode_bytes

(* A stalled reader's backlog goes out through the daemon's write
   buffer: each write copies at most one buffer's worth and allocates
   nothing, however long the backlog. *)
let session_blit_out_is_bounded () =
  let s = Session.create ~id:5 ~peer:"test" () in
  let i = ref 0 in
  while String.length (Session.out_chunk s) < 1 lsl 20 do
    for _ = 1 to 1000 do
      Session.queue s (Protocol.Rejected { id = !i; reason = "port-saturated" });
      incr i
    done
  done;
  let backlog = Session.out_chunk s in
  let dst = Bytes.create 65536 in
  let n, words = words_allocated (fun () -> Session.blit_out s dst) in
  Alcotest.(check int) "one buffer's worth copied" 65536 n;
  Alcotest.(check (float 0.)) "no words allocated" 0. words;
  Alcotest.(check string) "the first pending bytes" (String.sub backlog 0 n) (Bytes.to_string dst);
  Alcotest.(check bool) "still pending until written" true
    (String.length (Session.out_chunk s) = String.length backlog)

(* --- admission semantics --- *)

let policy = Policy.Fraction_of_max 0.8

let admit ?(id = 1) ?(ingress = 0) ?(egress = 0) ?(volume = 100.) ?(ts = 0.) ?(tf = 10.)
    ?(max_rate = 50.) () =
  Protocol.Admit { id; ingress; egress; volume; ts; tf; max_rate }

(* The scan is the path a well-formed admit takes: it builds no tree, so
   it allocates a fraction of what the tree decoder does. *)
let admit_decode_takes_the_scan () =
  let p = Protocol.encode_request (admit ~id:12 ~volume:1234.5 ~ts:0.75 ~tf:99.125 ()) in
  let _, scan = words_allocated (fun () -> Protocol.decode_request p) in
  let _, tree = words_allocated (fun () -> Protocol.decode_request_tree p) in
  if not (scan *. 3. < tree) then
    Alcotest.failf "scan allocated %.0f words, tree decoder %.0f" scan tree

let admission_decides_and_is_idempotent () =
  let t = Admission.create ~policy (fabric2 ()) in
  let first = Admission.handle t (admit ()) in
  (match first with
  | Protocol.Admitted { id = 1; bw; sigma; tau } ->
      (* f=0.8 grants max(0.8*50, 100/10) = 40 MB/s from sigma = ts *)
      check_approx "bw" 40.0 bw;
      check_approx "sigma" 0.0 sigma;
      check_approx "tau" 2.5 tau
  | r -> Alcotest.failf "expected admission, got %a" Protocol.pp_response r);
  (* at-least-once retry: byte-identical decision, no re-decide *)
  Alcotest.(check bool) "duplicate admit returns the recorded decision" true
    (Admission.handle t (admit ()) = first);
  Alcotest.(check int) "still one accepted" 1 (Admission.accepted_count t);
  (* infeasible: min rate 200 MB/s on a 100 MB/s port *)
  (match Admission.handle t (admit ~id:2 ~volume:2000. ~max_rate:200. ()) with
  | Protocol.Rejected { id = 2; _ } -> ()
  | r -> Alcotest.failf "expected rejection, got %a" Protocol.pp_response r);
  (* validation failures come back as typed errors, not exceptions *)
  (match Admission.handle t (admit ~id:3 ~ingress:9 ()) with
  | Protocol.Error { code = Protocol.Bad_request; _ } -> ()
  | r -> Alcotest.failf "expected bad-request (no such route), got %a" Protocol.pp_response r);
  (match Admission.handle t (admit ~id:4 ~ts:(-1.) ~tf:5. ()) with
  | Protocol.Error { code = Protocol.Bad_request; _ } -> ()
  | r -> Alcotest.failf "expected bad-request (negative ts), got %a" Protocol.pp_response r);
  (match Admission.handle t (admit ~id:5 ~tf:0. ()) with
  | Protocol.Error { code = Protocol.Bad_request; _ } -> ()
  | r -> Alcotest.failf "expected bad-request (empty window), got %a" Protocol.pp_response r)

let admission_query_and_cancel () =
  let t = Admission.create ~policy (fabric2 ()) in
  (match Admission.handle t (Protocol.Query { id = 9 }) with
  | Protocol.Status { id = 9; disposition = Protocol.Unknown } -> ()
  | r -> Alcotest.failf "expected unknown, got %a" Protocol.pp_response r);
  ignore (Admission.handle t (admit ()));
  (match Admission.handle t (Protocol.Query { id = 1 }) with
  | Protocol.Status { id = 1; disposition = Protocol.Active _ } -> ()
  | r -> Alcotest.failf "expected active, got %a" Protocol.pp_response r);
  (match Admission.handle t (Protocol.Cancel { id = 1 }) with
  | Protocol.Cancel_ok { id = 1 } -> ()
  | r -> Alcotest.failf "expected cancel-ok, got %a" Protocol.pp_response r);
  Alcotest.(check bool) "cancel retry is idempotent" true
    (Admission.handle t (Protocol.Cancel { id = 1 }) = Protocol.Cancel_ok { id = 1 });
  (match Admission.handle t (Protocol.Query { id = 1 }) with
  | Protocol.Status { id = 1; disposition = Protocol.Cancelled } -> ()
  | r -> Alcotest.failf "expected cancelled, got %a" Protocol.pp_response r);
  (match Admission.handle t (Protocol.Cancel { id = 77 }) with
  | Protocol.Cancel_failed { id = 77; _ } -> ()
  | r -> Alcotest.failf "expected cancel-failed, got %a" Protocol.pp_response r);
  (* a cancelled transfer's bandwidth is free again *)
  (match Admission.handle t (admit ~id:2 ~volume:900. ~max_rate:100. ()) with
  | Protocol.Admitted _ -> ()
  | r -> Alcotest.failf "expected re-admission after cancel, got %a" Protocol.pp_response r);
  (match Admission.handle t Protocol.Stats with
  | Protocol.Stats_text _ -> ()
  | r -> Alcotest.failf "expected stats text, got %a" Protocol.pp_response r);
  match Admission.handle t Protocol.Shutdown with
  | Protocol.Goodbye { records = 0 } -> ()
  | r -> Alcotest.failf "expected goodbye with 0 records (no store), got %a" Protocol.pp_response r

(* Ids beyond 2^53 used to round onto other ids ({"id":1e30} decoded
   as 0), so a retry check answered them with id 0's decision. *)
let admission_refuses_out_of_range_ids () =
  let t = Admission.create ~policy (fabric2 ()) in
  let s = Session.create ~id:5 ~peer:"test" () in
  let serve payload =
    feed s (Frame.encode payload);
    match Session.next s with
    | Some (Session.Request r) -> Admission.handle t r
    | Some (Session.Undecodable resp) -> resp
    | Some (Session.Broken _) | None -> Alcotest.fail "expected one complete frame"
  in
  (match serve (Protocol.encode_request (admit ~id:0 ())) with
  | Protocol.Admitted { id = 0; _ } -> ()
  | r -> Alcotest.failf "expected id 0 admitted, got %a" Protocol.pp_response r);
  List.iter
    (fun id ->
      List.iter
        (fun payload ->
          match serve payload with
          | Protocol.Error { code = Protocol.Bad_request; _ } -> ()
          | r -> Alcotest.failf "%s: expected bad-request, got %a" payload Protocol.pp_response r)
        [
          Printf.sprintf {|{"v":1,"op":"query","id":%s}|} id;
          Printf.sprintf
            {|{"v":1,"op":"admit","id":%s,"in":0,"out":0,"vol":100,"ts":0,"tf":10,"max":50}|} id;
        ])
    [ "1e30"; "9007199254740992"; "9007199254740993" ];
  Alcotest.(check int) "only id 0 booked" 1 (Admission.accepted_count t);
  match serve {|{"v":1,"op":"query","id":9007199254740991}|} with
  | Protocol.Status { id = 9007199254740991; disposition = Protocol.Unknown } -> ()
  | r -> Alcotest.failf "expected 2^53 - 1 to be a valid id, got %a" Protocol.pp_response r

(* The protocol bound must not reach the journal: a store that booked an
   id past 2^53 before ids were bounded still recovers it, and nothing
   after it is cut. *)
let recovery_reads_ids_beyond_2p53 () =
  with_tmpdir (fun dir ->
      let config = store_config () in
      let fabric = fabric2 () in
      let store = Store.create ~config ~dir fabric in
      let t = Admission.create ~store ~policy fabric in
      let big = (1 lsl 53) + 2 in
      let reqs = [ admit ~id:big (); admit ~id:2 ~ts:20. ~tf:30. () ] in
      let responses = List.map (Admission.handle t) reqs in
      Admission.flush t;
      Admission.close t;
      match Store.recover ~config ~dir () with
      | Error e -> Alcotest.fail e
      | Ok r -> (
          match Admission.of_recovered ~policy r with
          | Error e -> Alcotest.fail e
          | Ok t2 ->
              Alcotest.(check int) "both bookings recovered" 2 (Admission.accepted_count t2);
              List.iter2
                (fun req resp ->
                  if Admission.handle t2 req <> resp then
                    Alcotest.failf "recovered decision differs for %a" pp_request req)
                reqs responses;
              Admission.close t2))

(* Journal a mixed decision history through a store, recover it, and
   demand the resumed admission state answers every retry and query with
   the original (bit-identical) decision. *)
let admission_recovery_round_trip () =
  with_tmpdir (fun dir ->
      let fabric = fabric2 () in
      let store = Store.create ~config:(store_config ()) ~dir fabric in
      let t = Admission.create ~store ~policy fabric in
      let reqs =
        List.map
          (fun (r : Request.t) ->
            Protocol.Admit
              {
                id = r.Request.id;
                ingress = r.Request.ingress;
                egress = r.Request.egress;
                volume = r.Request.volume;
                ts = Float.max 0. r.Request.ts;
                tf = r.Request.tf;
                max_rate = r.Request.max_rate;
              })
          (random_requests ~seed:11L ~n:40 fabric)
      in
      let responses = List.map (Admission.handle t) reqs in
      (* cancel the first two admitted transfers *)
      let admitted_ids =
        List.filter_map
          (function Protocol.Admitted { id; _ } -> Some id | _ -> None)
          responses
      in
      Alcotest.(check bool) "workload admits something" true (List.length admitted_ids >= 2);
      let to_cancel = [ List.nth admitted_ids 0; List.nth admitted_ids 1 ] in
      List.iter
        (fun id ->
          match Admission.handle t (Protocol.Cancel { id }) with
          | Protocol.Cancel_ok _ -> ()
          | r -> Alcotest.failf "cancel failed: %a" Protocol.pp_response r)
        to_cancel;
      Alcotest.(check bool) "decisions are dirty before flush" true (Admission.dirty t);
      Admission.flush t;
      Alcotest.(check bool) "flush clears dirty" false (Admission.dirty t);
      Admission.close t;
      match Store.recover ~config:(store_config ()) ~dir () with
      | Error e -> Alcotest.fail e
      | Ok r -> (
          match Admission.of_recovered ~policy r with
          | Error e -> Alcotest.fail e
          | Ok t2 ->
              Alcotest.(check int) "accepted count survives"
                (Admission.accepted_count t)
                (Admission.accepted_count t2);
              (* every admit retried against the recovered daemon returns
                 the original decision, floats bit-identical *)
              List.iter2
                (fun req resp ->
                  if Admission.handle t2 req <> resp then
                    Alcotest.failf "recovered decision differs for %a" pp_request req)
                reqs responses;
              List.iter
                (fun id ->
                  match Admission.handle t2 (Protocol.Query { id }) with
                  | Protocol.Status { disposition = Protocol.Cancelled; _ } -> ()
                  | r -> Alcotest.failf "expected cancelled after recovery, got %a"
                           Protocol.pp_response r)
                to_cancel;
              Admission.close t2))

(* A journal that ends in a reject: the live clock stands at the reject,
   so the recovered daemon must decide the next late admit there too —
   the decision an uninterrupted daemon gives. *)
let recovery_keeps_a_trailing_reject_clock () =
  with_tmpdir (fun dir ->
      let fabric = fabric2 () in
      let history =
        [
          admit ~id:1 ~ts:0. ~tf:10. ~max_rate:100. ();
          (* the port still carries request 1 at t = 1: saturated *)
          admit ~id:2 ~ts:1. ~tf:11. ~max_rate:100. ();
        ]
      in
      let late = admit ~id:3 ~ingress:1 ~egress:1 ~ts:0.5 ~tf:10.5 ~max_rate:100. () in
      let store = Store.create ~config:(store_config ()) ~dir fabric in
      let t = Admission.create ~store ~policy fabric in
      (match List.map (Admission.handle t) history with
      | [ Protocol.Admitted _; Protocol.Rejected _ ] -> ()
      | _ -> Alcotest.fail "expected an admit, then a reject");
      Admission.flush t;
      Admission.close t;
      let uninterrupted = Admission.create ~policy fabric in
      List.iter (fun req -> ignore (Admission.handle uninterrupted req)) history;
      let expected = Admission.handle uninterrupted late in
      match Store.recover ~config:(store_config ()) ~dir () with
      | Error e -> Alcotest.fail e
      | Ok r -> (
          match Admission.of_recovered ~policy r with
          | Error e -> Alcotest.fail e
          | Ok t2 ->
              let got = Admission.handle t2 late in
              Admission.close t2;
              if got <> expected then
                Alcotest.failf "recovered %a, uninterrupted %a" Protocol.pp_response got
                  Protocol.pp_response expected))

(* --- metric series --- *)

(* [# TYPE] lines of a Prometheus dump, as "name kind". *)
let series text =
  List.filter_map
    (fun l ->
      match String.split_on_char ' ' l with
      | [ "#"; "TYPE"; name; kind ] -> Some (name ^ " " ^ kind)
      | _ -> None)
    (String.split_on_char '\n' text)

let counter obs name = Metrics.value (Metrics.counter (Obs.metrics obs) name)
let hist_count obs name = Metrics.hist_count (Metrics.histogram (Obs.metrics obs) name)

(* The series a journaled admission run registers, pinned by name:
   metric keys resolve on first use, so no series appears early and none
   is renamed.  Counters agree with the run. *)
let admission_metric_series () =
  with_tmpdir (fun dir ->
      let fabric = fabric2 () in
      let obs = Obs.create () in
      let store = Store.create ~config:(store_config ()) ~obs ~dir fabric in
      let t = Admission.create ~obs ~store ~policy fabric in
      let admitted = ref [] and cancels = ref 0 in
      List.iteri
        (fun i (r : Request.t) ->
          (match
             Admission.handle t
               (admit ~id:r.Request.id ~ingress:r.Request.ingress ~egress:r.Request.egress
                  ~volume:r.Request.volume ~ts:(Float.max 0. r.Request.ts) ~tf:r.Request.tf
                  ~max_rate:r.Request.max_rate ())
           with
          | Protocol.Admitted { id; _ } -> admitted := id :: !admitted
          | _ -> ());
          (if i mod 7 = 6 then
             match !admitted with
             | id :: rest -> (
                 admitted := rest;
                 match Admission.handle t (Protocol.Cancel { id }) with
                 | Protocol.Cancel_ok _ -> incr cancels
                 | _ -> ())
             | [] -> ());
          if i mod 16 = 15 then Admission.flush t)
        (random_requests ~seed:19L ~n:120 fabric);
      Admission.flush t;
      Alcotest.(check (list string)) "series"
        [ "admit_accepted_total counter"; "admit_rejected_total counter";
          "admit_requests_total counter"; "preempted_total counter"; "span_admit_ns histogram";
          "store_fsync_batch_size histogram"; "store_fsync_total counter";
          "store_wal_records_total counter" ]
        (series (Metrics.to_prometheus (Obs.metrics obs)));
      let accepted = Admission.accepted_count t and rejected = Admission.rejected_count t in
      Alcotest.(check bool) "the run cancels" true (!cancels > 0 && accepted > 0);
      Alcotest.(check int) "admits" 120 (counter obs "admit_requests_total");
      Alcotest.(check int) "accepts" accepted (counter obs "admit_accepted_total");
      Alcotest.(check int) "rejects" rejected (counter obs "admit_rejected_total");
      Alcotest.(check int) "accepts + rejects" 120 (accepted + rejected);
      Alcotest.(check int) "cancels" !cancels (counter obs "preempted_total");
      Alcotest.(check int) "one admit span per decision" 120 (hist_count obs "span_admit_ns");
      Alcotest.(check int) "WAL records" (Admission.records t)
        (counter obs "store_wal_records_total");
      Admission.close t)

let of_recovered_refuses_engine_journals () =
  with_tmpdir (fun dir ->
      let fabric = fabric2 () in
      let store = Store.create ~config:(store_config ()) ~dir fabric in
      (* a capacity revision past the prefix marks a fault-injector run *)
      Store.log store
        (Gridbw_obs.Event.Arrival
           {
             time = 1.0;
             seq = 0;
             id = 0;
             ingress = 0;
             egress = 0;
             volume = 10.;
             ts = 1.0;
             tf = 11.0;
             max_rate = 5.;
           });
      Store.log store
        (Gridbw_obs.Event.Capacity
           { time = 5.0; side = Gridbw_obs.Event.Ingress; port = 0; capacity = 50. });
      Store.close store;
      match Store.recover ~config:(store_config ()) ~dir () with
      | Error e -> Alcotest.fail e
      | Ok r -> (
          match Admission.of_recovered ~policy r with
          | Error msg ->
              Alcotest.(check bool) "names the cause" true (String.length msg > 0)
          | Ok _ -> Alcotest.fail "engine-driven journal must be refused"))

(* --- live daemon end to end --- *)

let daemon_config ~sock ~store_dir =
  { (Daemon.default_config ~policy ~fabric:(fabric2 ()) ~store_dir (Daemon.Unix_socket sock)) with
    Daemon.store_config = store_config ();
    tick = 0.02 }

let end_to_end_live_daemon () =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let store_dir = Filename.concat dir "store" in
      let cfg = daemon_config ~sock ~store_dir in
      match Daemon.create cfg with
      | Error e -> Alcotest.fail e
      | Ok d -> (
          let th = Thread.create Daemon.run d in
          let lg =
            (* light load (large interarrival) so most requests admit and
               cancel_every:2 fires on every worker *)
            Loadgen.default_config ~connections:3 ~requests:300 ~seed:5L ~cancel_every:2
              ~mean_interarrival:50. ~fabric:(fabric2 ()) (Daemon.Unix_socket sock)
          in
          match Loadgen.run lg with
          | Error e ->
              Daemon.stop d;
              Thread.join th;
              Alcotest.fail e
          | Ok report -> (
              Alcotest.(check int) "every admit answered" 300
                (report.Loadgen.admitted + report.Loadgen.rejected);
              Alcotest.(check int) "no protocol errors" 0 report.Loadgen.errors;
              Alcotest.(check int) "no disconnects" 0 report.Loadgen.disconnects;
              Alcotest.(check bool) "some admitted" true (report.Loadgen.admitted > 0);
              Alcotest.(check bool) "some cancelled" true (report.Loadgen.cancelled > 0);
              Alcotest.(check bool) "latencies measured" true
                (report.Loadgen.lat_p50_us > 0.
                 && report.Loadgen.lat_p50_us <= report.Loadgen.lat_p99_us);
              Alcotest.(check bool) "p50 <= p95 <= p99 <= max" true
                (report.Loadgen.lat_p50_us <= report.Loadgen.lat_p95_us
                 && report.Loadgen.lat_p95_us <= report.Loadgen.lat_p99_us
                 && report.Loadgen.lat_p99_us <= report.Loadgen.lat_max_us);
              (* graceful shutdown through the protocol verb *)
              (match Loadgen.shutdown (Daemon.Unix_socket sock) with
              | Error e -> Alcotest.fail ("shutdown: " ^ e)
              | Ok records -> Alcotest.(check bool) "journal non-empty" true (records > 0));
              Thread.join th;
              Alcotest.(check bool) "socket removed on shutdown" false (Sys.file_exists sock);
              (* restart on the surviving store: recovery audits clean and
                 the decision history is intact *)
              match Daemon.create cfg with
              | Error e -> Alcotest.fail ("restart: " ^ e)
              | Ok d2 ->
                  let adm = Daemon.admission d2 in
                  Alcotest.(check int) "accepted count survives restart"
                    report.Loadgen.admitted
                    (Admission.accepted_count adm);
                  Daemon.stop d2;
                  let th2 = Thread.create Daemon.run d2 in
                  Thread.join th2)))

(* The report's percentiles are order statistics of the samples, not
   bucket estimates: with one sample every percentile is that sample. *)
let loadgen_single_request_percentiles () =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      match Daemon.create (daemon_config ~sock ~store_dir:(Filename.concat dir "store")) with
      | Error e -> Alcotest.fail e
      | Ok d -> (
          let th = Thread.create Daemon.run d in
          let lg =
            Loadgen.default_config ~connections:1 ~requests:1 ~seed:5L ~fabric:(fabric2 ())
              (Daemon.Unix_socket sock)
          in
          let result = Loadgen.run lg in
          (match Loadgen.shutdown (Daemon.Unix_socket sock) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("shutdown: " ^ e));
          Thread.join th;
          match result with
          | Error e -> Alcotest.fail e
          | Ok report ->
              let max = report.Loadgen.lat_max_us in
              Alcotest.(check bool) "latency measured" true (max > 0.);
              Alcotest.(check (float 0.)) "p50 = max" max report.Loadgen.lat_p50_us;
              Alcotest.(check (float 0.)) "p95 = max" max report.Loadgen.lat_p95_us;
              Alcotest.(check (float 0.)) "p99 = max" max report.Loadgen.lat_p99_us))

(* The daemon's per-request and per-round series, keyed: each request
   counts once and runs one [serve_handle] span (the shutdown verb
   counts without one), and each flush runs one [serve_flush] span. *)
let daemon_metric_series () =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let fabric = Gridbw_topology.Fabric.paper_default () in
      let cfg =
        { (daemon_config ~sock ~store_dir:(Filename.concat dir "store")) with Daemon.fabric }
      in
      let obs = Obs.create () in
      match Daemon.create ~obs cfg with
      | Error e -> Alcotest.fail e
      | Ok d -> (
          let th = Thread.create Daemon.run d in
          let lg =
            Loadgen.default_config ~connections:1 ~requests:60 ~seed:5L ~cancel_every:4
              ~mean_interarrival:200. ~fabric (Daemon.Unix_socket sock)
          in
          match Loadgen.run lg with
          | Error e ->
              Daemon.stop d;
              Thread.join th;
              Alcotest.fail e
          | Ok report ->
              let records =
                match Loadgen.shutdown (Daemon.Unix_socket sock) with
                | Ok n -> n
                | Error e -> Alcotest.fail ("shutdown: " ^ e)
              in
              Thread.join th;
              Alcotest.(check (list string)) "series"
                [ "admit_accepted_total counter"; "admit_rejected_total counter";
                  "admit_requests_total counter"; "preempted_total counter";
                  "serve_connections_active gauge"; "serve_connections_total counter";
                  "serve_flushes_total counter"; "serve_requests_total counter";
                  "span_admit_ns histogram"; "span_serve_flush_ns histogram";
                  "span_serve_handle_ns histogram"; "store_fsync_batch_size histogram";
                  "store_fsync_total counter";
                  "store_wal_records_total counter" ]
                (series (Metrics.to_prometheus (Obs.metrics obs)));
              let requests = 60 + report.Loadgen.cancelled in
              Alcotest.(check bool) "the run cancels" true (report.Loadgen.cancelled > 0);
              Alcotest.(check int) "requests, shutdown included" (requests + 1)
                (counter obs "serve_requests_total");
              Alcotest.(check int) "one handle span per request" requests
                (hist_count obs "span_serve_handle_ns");
              Alcotest.(check int) "one flush span per flush" (counter obs "serve_flushes_total")
                (hist_count obs "span_serve_flush_ns");
              Alcotest.(check int) "accepts" report.Loadgen.admitted
                (counter obs "admit_accepted_total");
              Alcotest.(check int) "rejects" report.Loadgen.rejected
                (counter obs "admit_rejected_total");
              Alcotest.(check int) "cancels" report.Loadgen.cancelled (counter obs "preempted_total");
              Alcotest.(check int) "WAL records" records (counter obs "store_wal_records_total")))

(* --- flight recorder --- *)

module Span = Gridbw_obs.Span
module Flight = Gridbw_obs.Flight

let flight_span i =
  Span.make ~id:i ~conn:(i mod 4) ~req:(Some (1000 + i)) ~time:(float_of_int i)
    ~total_ns:(float_of_int (i * 100)) ~probes:2
    ~durs:[| 1.; 2.; 3.; 4.; 5.; 6. |]

let span_ids spans = List.map Span.id spans

let flight_wraps_and_keeps_newest () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "flight.bin" in
      (* A file this small holds only a handful of frames, so 100
         appends wrap it many times over. *)
      let frame_len =
        String.length (Gridbw_wire.Codec.to_string (module Span.Binary) (flight_span 0))
      in
      let f = Flight.create ~size:(4 * frame_len) path in
      for i = 0 to 99 do
        Flight.append f (flight_span i)
      done;
      Flight.close f;
      match Flight.scan path with
      | Error e -> Alcotest.fail e
      | Ok spans ->
          let n = List.length spans in
          Alcotest.(check bool) "a wrapped ring keeps a recent window" true
            (n >= 2 && n <= 4);
          let expect = List.init n (fun j -> 100 - n + j) in
          Alcotest.(check (list int)) "newest spans, oldest first" expect (span_ids spans);
          Alcotest.(check (list int)) "last trims to the newest two" [ 98; 99 ]
            (span_ids (Flight.last 2 spans)))

let flight_tolerates_torn_tail () =
  with_tmpdir (fun dir ->
      let path = Filename.concat dir "flight.bin" in
      let f = Flight.create ~size:(1 lsl 14) path in
      for i = 0 to 9 do
        Flight.append f (flight_span i)
      done;
      Flight.close f;
      let read_all () =
        let ic = open_in_bin path in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        s
      in
      let bytes = Bytes.of_string (read_all ()) in
      (* Sever the last frame mid-record: flip a byte inside it.  The
         CRC kills that frame; every other span still comes back. *)
      let frame_len =
        String.length (Gridbw_wire.Codec.to_string (module Span.Binary) (flight_span 9))
      in
      let torn_at = (10 * frame_len) - (frame_len / 2) in
      Bytes.set bytes torn_at (Char.chr (Char.code (Bytes.get bytes torn_at) lxor 0xff));
      Alcotest.(check (list int)) "corrupted frame dropped, rest recovered"
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
        (span_ids (Flight.scan_string (Bytes.to_string bytes)));
      (* Truncation (crash mid-write of the trailing frame) behaves the
         same: the partial record is dropped, not fatal. *)
      let truncated = Bytes.sub_string bytes 0 ((10 * frame_len) - 3) in
      Alcotest.(check (list int)) "truncated tail dropped"
        [ 0; 1; 2; 3; 4; 5; 6; 7; 8 ]
        (span_ids (Flight.scan_string truncated)))

let daemon_survives_malformed_clients () =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let cfg =
        { (Daemon.default_config ~policy ~fabric:(fabric2 ()) (Daemon.Unix_socket sock)) with
          Daemon.tick = 0.02 }
      in
      match Daemon.create cfg with
      | Error e -> Alcotest.fail e
      | Ok d ->
          let th = Thread.create Daemon.run d in
          let connect () =
            let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX sock);
            fd
          in
          (* a client with broken framing gets a typed error then the boot *)
          let fd = connect () in
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          output_string oc "this is not a frame\n";
          flush oc;
          (match Frame.input ic with
          | Ok payload -> (
              match Protocol.decode_response payload with
              | Ok (Protocol.Error { code = Protocol.Bad_frame; _ }) -> ()
              | _ -> Alcotest.fail "expected a bad-frame error response")
          | Error _ -> Alcotest.fail "expected an error response before close");
          Alcotest.(check bool) "connection closed after framing error" true
            (Frame.input ic = Error `Eof);
          Unix.close fd;
          (* bad JSON in a well-formed frame keeps the connection alive *)
          let fd = connect () in
          let ic = Unix.in_channel_of_descr fd in
          let oc = Unix.out_channel_of_descr fd in
          Frame.output oc "{broken";
          (match Frame.input ic with
          | Ok payload -> (
              match Protocol.decode_response payload with
              | Ok (Protocol.Error { code = Protocol.Bad_json; _ }) -> ()
              | _ -> Alcotest.fail "expected a bad-json error response")
          | Error _ -> Alcotest.fail "expected an error response");
          Frame.output oc (Protocol.encode_request Protocol.Stats);
          (match Frame.input ic with
          | Ok payload -> (
              match Protocol.decode_response payload with
              | Ok (Protocol.Stats_text text) ->
                  Alcotest.(check bool) "stats carries serve metrics" true
                    (contains ~affix:"serve_connections_total" text)
              | _ -> Alcotest.fail "expected stats after the payload error")
          | Error _ -> Alcotest.fail "connection should have survived the payload error");
          Unix.close fd;
          (* a client that pipelines admits and vanishes without reading
             a reply: its connection must close, not stay open with the
             replies pending while select wakes on it every round *)
          let settle n =
            let deadline = Unix.gettimeofday () +. 10. in
            while Daemon.connections d <> n && Unix.gettimeofday () < deadline do
              Thread.delay 0.01
            done;
            Daemon.connections d
          in
          Alcotest.(check int) "earlier clients are gone" 0 (settle 0);
          let fd = connect () in
          let burst = Buffer.create (2000 * 128) in
          for id = 0 to 1999 do
            Frame.add_as Frame.Text burst
              (Protocol.encode_request
                 (Protocol.Admit
                    { id; ingress = id mod 2; egress = id / 2 mod 2; volume = 10.; ts = 0.;
                      tf = 100.; max_rate = 1. }))
          done;
          let wire = Buffer.contents burst in
          let rec send off =
            if off < String.length wire then
              send (off + Unix.write_substring fd wire off (String.length wire - off))
          in
          send 0;
          Alcotest.(check int) "the pipelining client is connected" 1 (settle 1);
          Unix.close fd;
          Alcotest.(check int) "a vanished client's connection is closed" 0 (settle 0);
          Daemon.stop d;
          Thread.join th)

(* --- the /metrics scrape endpoint --- *)

let free_loopback_port () =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, port) -> port
      | Unix.ADDR_UNIX _ -> Alcotest.fail "a TCP socket has an inet address")

let rec send_all fd s off =
  if off < String.length s then
    send_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* Everything the daemon sends until it closes.  A reset counts as a
   close: a daemon that hangs up on unread input resets the stream. *)
let read_to_close fd =
  let b = Buffer.create 4096 and chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes b chunk 0 n;
        go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.fail "the daemon did not close the scrape connection"
  in
  go ();
  Buffer.contents b

let scrape_connect port =
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  fd

let scrape port request =
  let fd = scrape_connect port in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (try send_all fd request 0
       with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
      read_to_close fd)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* The scrape endpoint answers GET /metrics, refuses other paths, drops
   an over-long request line unanswered, and its connections never
   count as protocol clients. *)
let daemon_serves_metrics () =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let port = free_loopback_port () in
      let cfg =
        { (Daemon.default_config ~policy ~fabric:(fabric2 ()) ~metrics_port:port
             (Daemon.Unix_socket sock))
          with
          Daemon.tick = 0.02 }
      in
      match Daemon.create cfg with
      | Error e -> Alcotest.fail e
      | Ok d ->
          let th = Thread.create Daemon.run d in
          Fun.protect
            ~finally:(fun () ->
              Daemon.stop d;
              Thread.join th)
            (fun () ->
              (* one protocol client, connected throughout; its request
                 registers the per-request series *)
              let client = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.connect client (Unix.ADDR_UNIX sock);
              let ic = Unix.in_channel_of_descr client in
              let oc = Unix.out_channel_of_descr client in
              Frame.output oc (Protocol.encode_request Protocol.Stats);
              (match Frame.input ic with
              | Ok _ -> ()
              | Error _ -> Alcotest.fail "expected a stats reply");
              Alcotest.(check int) "one protocol client" 1 (Daemon.connections d);
              (* a scrape connection that sits on half a request line for
                 many ticks is accepted, yet is not a protocol client *)
              let fd = scrape_connect port in
              send_all fd "GET /met" 0;
              Thread.delay 0.3;
              Alcotest.(check int) "an open scrape is not a connection" 1
                (Daemon.connections d);
              send_all fd "rics HTTP/1.0\r\nHost: localhost\r\n\r\n" 0;
              let reply = read_to_close fd in
              Unix.close fd;
              Alcotest.(check bool) "GET /metrics answers 200" true
                (starts_with ~prefix:"HTTP/1.0 200 OK\r\n" reply);
              Alcotest.(check bool) "the body carries the serve series" true
                (contains ~affix:"serve_requests_total" reply);
              Alcotest.(check bool) "the gauge counts the protocol client only" true
                (contains ~affix:"\nserve_connections_active 1\n" reply);
              let other = scrape port "GET /other HTTP/1.0\r\n\r\n" in
              Alcotest.(check bool) "another path answers 404" true
                (starts_with ~prefix:"HTTP/1.0 404 Not Found\r\n" other);
              Alcotest.(check bool) "the 404 names the one served path" true
                (contains ~affix:"only GET /metrics is served" other);
              Alcotest.(check string) "an over-long request line is closed unanswered" ""
                (scrape port (String.make 5000 'x'));
              Alcotest.(check bool) "a later scrape is still served" true
                (starts_with ~prefix:"HTTP/1.0 200 OK\r\n"
                   (scrape port "GET /metrics HTTP/1.0\r\n\r\n"));
              Alcotest.(check int) "still one protocol client" 1 (Daemon.connections d);
              Unix.close client))

(* Replies still pending at shutdown drain to their client, every one
   and in request order: a client pipelines more admits than its socket
   buffer holds replies for and reads only after another connection
   asked the daemon to stop. *)
let daemon_drains_replies_on_shutdown () =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let cfg =
        { (Daemon.default_config ~policy ~fabric:(fabric2 ()) (Daemon.Unix_socket sock)) with
          Daemon.tick = 0.02 }
      in
      match Daemon.create cfg with
      | Error e -> Alcotest.fail e
      | Ok d ->
          let th = Thread.create Daemon.run d in
          let n = 20_000 in
          let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          Unix.connect fd (Unix.ADDR_UNIX sock);
          let burst = Buffer.create (n * 128) in
          for id = 0 to n - 1 do
            Frame.add_as Frame.Text burst
              (Protocol.encode_request
                 (Protocol.Admit
                    { id; ingress = id mod 2; egress = id / 2 mod 2; volume = 10.; ts = 0.;
                      tf = 100.; max_rate = 1. }))
          done;
          send_all fd (Buffer.contents burst) 0;
          let adm = Daemon.admission d in
          let decided () = Admission.accepted_count adm + Admission.rejected_count adm in
          let deadline = Unix.gettimeofday () +. 30. in
          while decided () < n && Unix.gettimeofday () < deadline do
            Thread.delay 0.01
          done;
          Alcotest.(check int) "every admit decided before shutdown" n (decided ());
          (match Loadgen.shutdown (Daemon.Unix_socket sock) with
          | Ok _ -> ()
          | Error e -> Alcotest.fail ("shutdown: " ^ e));
          let ic = Unix.in_channel_of_descr fd in
          let reply_id () =
            match Frame.input ic with
            | Error _ -> None
            | Ok payload -> (
                match Protocol.decode_response payload with
                | Ok (Protocol.Admitted { id; _ } | Protocol.Rejected { id; _ }) -> Some id
                | _ -> Alcotest.fail "expected an admit reply")
          in
          let ids = List.init n (fun _ -> reply_id ()) in
          Alcotest.(check (list (option int))) "every reply, in request order"
            (List.init n Option.some) ids;
          Alcotest.(check bool) "then the daemon closes" true (Frame.input ic = Error `Eof);
          Unix.close fd;
          Thread.join th)

(* Group commit on the serving path: one client pipelines K admits in a
   single send, and the daemon makes them durable in a few fsyncs, not
   one per admit.  The store runs the default WAL config, as [serve]
   does, so both the per-round flush and the WAL's batch bound the
   count; every reply still arrives, in request order. *)
let daemon_group_commits_a_pipelined_burst () =
  with_tmpdir (fun dir ->
      let sock = Filename.concat dir "d.sock" in
      let cfg =
        { (Daemon.default_config ~policy ~fabric:(fabric2 ())
             ~store_dir:(Filename.concat dir "store") (Daemon.Unix_socket sock))
          with
          Daemon.tick = 0.02 }
      in
      let obs = Obs.create () in
      match Daemon.create ~obs cfg with
      | Error e -> Alcotest.fail e
      | Ok d ->
          let th = Thread.create Daemon.run d in
          Fun.protect
            ~finally:(fun () ->
              Daemon.stop d;
              Thread.join th)
            (fun () ->
              let k = 512 in
              let burst = Buffer.create (k * 128) in
              for id = 0 to k - 1 do
                Frame.add_as Frame.Text burst
                  (Protocol.encode_request
                     (Protocol.Admit
                        { id; ingress = id mod 2; egress = id / 2 mod 2; volume = 10.; ts = 0.;
                          tf = 100.; max_rate = 1. }))
              done;
              let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_UNIX sock);
              let ic = Unix.in_channel_of_descr fd in
              let before = counter obs "store_fsync_total" in
              send_all fd (Buffer.contents burst) 0;
              let reply_id () =
                match Frame.input ic with
                | Error _ -> None
                | Ok payload -> (
                    match Protocol.decode_response payload with
                    | Ok (Protocol.Admitted { id; _ } | Protocol.Rejected { id; _ }) -> Some id
                    | _ -> None)
              in
              let ids = List.init k (fun _ -> reply_id ()) in
              let fsyncs = counter obs "store_fsync_total" - before in
              Unix.close fd;
              Alcotest.(check (list (option int))) "every reply, in request order"
                (List.init k Option.some) ids;
              if fsyncs < 1 || fsyncs > k / 16 then
                Alcotest.failf "%d pipelined admits took %d fsyncs (want 1..%d)" k fsyncs
                  (k / 16)))

(* --- byte pins of the serving path --- *)

(* Malformed or unusual payloads mixed into the pinned stream: their
   replies pin the error messages and byte offsets, which clients see
   inside [bad-json] replies, and the doubles an unusual number spelling
   decodes to. *)
let odd_payloads =
  [|
    {|{"v":1,"op":"admit","id":1000001,"in":0,"out":0,"vol":1e,"ts":0,"tf":1,"max":1}|};
    {|{"v":1,"op":"admit","id":--1}|};
    {|{"v":1,"op":"query","id":1.5}|};
    {|[1,2|};
    {|{"v":2,"op":"query","id":1}|};
    {|{"v":1,"op":"admit","id":1000002,"in":0,"out":1,"vol":.5,"ts":-0,"tf":1e1,"max":+2}|};
    {|{"v":1,"op":"admit","id":1000003,"in":1,"out":0,"vol":0x10,"ts":0,"tf":1,"max":1}|};
    {|{"v":1,"op":"admit","id":1000004,"in":1,"out":1,"vol":00012.50,"ts":1E1,"tf":2e+1,"max":123456789012345678901234e-20}|};
    {|{"v":1,"op":"admit","id":1000005,"in":0,"out":0,"vol":1.5e,"ts":0,"tf":1,"max":1}|};
    {|{"v":1,"op":"admit","id":1000006,"in":0,"out":0,"vol":1-2,"ts":0,"tf":1,"max":1}|};
    {|{"v":1,"op":"admit","id":1000007,"in":0,"out":0,"vol":1e400,"ts":0,"tf":1,"max":1}|};
    {|{"v":1,"op":"cancel","id":-}|};
  |]

(* A seeded stream through the whole serving path, in rounds of 64
   frames the way the daemon's select loop runs it: [Frame] and
   [Session] decode, [Admission] decides with a store attached, the
   round is flushed, and [Session.queue] frames the replies.  Every 7th
   admit is followed by a query and a cancel of earlier ids and every
   250th by one of [odd_payloads].  Requests 900-999, 1900-1999 and
   2900-2999 travel in binary frames, so whole rounds are answered in
   binary.  The WAL's segments are small, so it rotates.  The
   digests pin the reply bytes and every store file's bytes. *)
let serving_path_bytes_pinned () =
  with_tmpdir (fun dir ->
      let fabric = Gridbw_topology.Fabric.paper_default () in
      let config =
        { (store_config ()) with
          Store.wal = { (store_config ()).Store.wal with Wal.segment_bytes = 32 * 1024 } }
      in
      let store = Store.create ~config ~dir fabric in
      let adm = Admission.create ~store ~policy fabric in
      let spec =
        Gridbw_workload.Spec.make ~fabric ~count:3000
          ~flexibility:(Gridbw_workload.Spec.Flexible { max_slack = 4. })
          ~mean_interarrival:14. ()
      in
      let reqs = Gridbw_workload.Gen.generate (Gridbw_prng.Rng.create ~seed:7L ()) spec in
      let frames = ref [] in
      let push fmt payload = frames := Frame.encode_as fmt payload :: !frames in
      List.iteri
        (fun i (r : Request.t) ->
          let fmt = if i mod 1000 >= 900 then Frame.Binary else Frame.Text in
          push fmt
            (Protocol.encode_request
               (admit ~id:r.Request.id ~ingress:r.Request.ingress ~egress:r.Request.egress
                  ~volume:r.Request.volume ~ts:r.Request.ts ~tf:r.Request.tf
                  ~max_rate:r.Request.max_rate ()));
          if i mod 7 = 6 then begin
            push fmt (Protocol.encode_request (Protocol.Query { id = i - 3 }));
            push fmt (Protocol.encode_request (Protocol.Cancel { id = i - 5 }))
          end;
          if i mod 250 = 249 then
            push fmt odd_payloads.((i / 250) mod Array.length odd_payloads))
        reqs;
      let frames = Array.of_list (List.rev !frames) in
      let s = Session.create ~id:0 ~peer:"pins" () in
      let replies = Buffer.create (1 lsl 20) in
      let count = ref 0 in
      let n = Array.length frames in
      let k = ref 0 in
      while !k < n do
        let m = Int.min 64 (n - !k) in
        let chunk = Bytes.of_string (String.concat "" (Array.to_list (Array.sub frames !k m))) in
        Session.feed_sub s chunk 0 (Bytes.length chunk);
        let rec drain acc =
          match Session.next s with
          | None -> List.rev acc
          | Some (Session.Request req) -> drain (Admission.handle adm req :: acc)
          | Some (Session.Undecodable resp) -> drain (resp :: acc)
          | Some (Session.Broken resp) ->
              Alcotest.failf "broken framing: %a" Protocol.pp_response resp
        in
        let resps = drain [] in
        if Admission.dirty adm then Admission.flush adm;
        List.iter (Session.queue s) resps;
        count := !count + List.length resps;
        let out = Session.out_chunk s in
        Buffer.add_string replies out;
        Session.wrote s (String.length out);
        k := !k + m
      done;
      Admission.close adm;
      let md5 s = Digest.to_hex (Digest.string s) in
      let read path = In_channel.with_open_bin path In_channel.input_all in
      let files = List.sort compare (Array.to_list (Sys.readdir dir)) in
      Alcotest.(check int) "one reply a frame" n !count;
      Alcotest.(check string) "reply bytes" "3cdc8325b84922f9e27dcbe1eae6e099" (md5 (Buffer.contents replies));
      Alcotest.(check (list (pair string string)))
        "store files"
        [
          ("store.json", "3c8a4e3a3df6fd8d401eff5561fd67de");
          ("wal-0000000000.log", "28d779f18627c03b39d04a0f3afa4744");
          ("wal-0000000313.log", "3aec11baeb1a1f09bc7c25b4c75cf73c");
          ("wal-0000000609.log", "672f3c58255956f9c2beee29114c0ea0");
          ("wal-0000000913.log", "dd26714c70a037e16d03560823b69475");
          ("wal-0000001217.log", "5b803c272b616c9f3b0591bddae21777");
          ("wal-0000001520.log", "405255545c81ebeb491d9e19f9f90aea");
          ("wal-0000001818.log", "7b36ca866fa5e2cae8e50b3a163963ce");
          ("wal-0000002117.log", "83e50cd950f3506ff9b5d70fa22d30bb");
          ("wal-0000002414.log", "b0e117c79ad4ced9ed46b3c313896c86");
          ("wal-0000002712.log", "b75472a1d8afb8b75e27344be72eff3c");
          ("wal-0000003010.log", "b5673ecb5e59528f5a14205a61da6a85");
        ]
        (List.map (fun f -> (f, md5 (read (Filename.concat dir f)))) files))

(* Words one admit allocates on the serving path: [Session.next] (frame
   and payload decode), [Admission.handle] with a store attached (the
   decision and its journal record) and [Session.queue] (render and
   frame), averaged over 200 admits of the seed-7 stream after 300 of
   warm-up.  The connection's output buffer is grown during the warm-up
   and drained outside the measurement, as the daemon drains it between
   rounds.  Of the ≈210 words an admit takes, the frame's payload string
   is ≈20, the payload decode ≈42 (the request record and its boxed
   floats) and [Admission.handle] ≈130 (request, events, journal record);
   numbers are read into an unboxed array and replies rendered in place,
   so neither adds a string or a boxed float. *)
let admit_word_budget = 220

let admit_words_per_op () =
  with_tmpdir (fun dir ->
      let fabric = Gridbw_topology.Fabric.paper_default () in
      let store = Store.create ~config:(store_config ()) ~dir fabric in
      let adm = Admission.create ~store ~policy fabric in
      let spec =
        Gridbw_workload.Spec.make ~fabric ~count:500
          ~flexibility:(Gridbw_workload.Spec.Flexible { max_slack = 4. })
          ~mean_interarrival:14. ()
      in
      let reqs =
        Array.of_list (Gridbw_workload.Gen.generate (Gridbw_prng.Rng.create ~seed:7L ()) spec)
      in
      let s = Session.create ~id:0 ~peer:"words" () in
      let feed lo hi =
        for i = lo to hi - 1 do
          let r = reqs.(i) in
          feed s
            (Frame.encode
               (Protocol.encode_request
                  (admit ~id:r.Request.id ~ingress:r.Request.ingress ~egress:r.Request.egress
                     ~volume:r.Request.volume ~ts:r.Request.ts ~tf:r.Request.tf
                     ~max_rate:r.Request.max_rate ())))
        done
      in
      let serve_all () =
        let rec go n =
          match Session.next s with
          | Some (Session.Request req) ->
              Session.queue s (Admission.handle adm req);
              go (n + 1)
          | Some _ -> Alcotest.fail "an admit did not decode"
          | None -> n
        in
        go 0
      in
      feed 0 300;
      Alcotest.(check int) "warm-up admits" 300 (serve_all ());
      let dst = Bytes.create 65536 in
      while Session.pending s do
        Session.wrote s (Session.blit_out s dst)
      done;
      feed 300 500;
      let n, words = words_allocated serve_all in
      Alcotest.(check int) "measured admits" 200 n;
      Admission.close adm;
      let per_op = words /. float_of_int n in
      Printf.printf "%.1f words per admit\n" per_op;
      if per_op > float_of_int admit_word_budget then
        Alcotest.failf "%.1f words per admit, budget %d" per_op admit_word_budget)

(* Words that outlive the minor heap, per admit: 3,000 admits of the
   seed-7 stream through [Session.next], [Admission.handle] with a store
   and [Session.queue], flushed and drained every 64 as the daemon does
   once per round.  The count is [Gc.counters]' promoted words around a
   full major collection on each side, so it includes every word the
   run leaves live.  The decision table keeps its rows in preallocated
   unboxed pages, so a decision leaves no block behind: 1.9-2.4 words
   per admit survive (the booking on the controller's release queue,
   when a minor collection falls inside its transfer, and the journal
   channel's state), where a table of per-id heap blocks kept 14-15. *)
let admit_promoted_budget = 5.

let admit_promoted_words () =
  with_tmpdir (fun dir ->
      let fabric = Gridbw_topology.Fabric.paper_default () in
      let store = Store.create ~config:(store_config ()) ~dir fabric in
      let adm = Admission.create ~store ~policy fabric in
      let n = 3000 in
      let spec =
        Gridbw_workload.Spec.make ~fabric ~count:n
          ~flexibility:(Gridbw_workload.Spec.Flexible { max_slack = 4. })
          ~mean_interarrival:14. ()
      in
      let frames =
        Array.of_list
          (List.map
             (fun (r : Request.t) ->
               Frame.encode
                 (Protocol.encode_request
                    (admit ~id:r.Request.id ~ingress:r.Request.ingress ~egress:r.Request.egress
                       ~volume:r.Request.volume ~ts:r.Request.ts ~tf:r.Request.tf
                       ~max_rate:r.Request.max_rate ())))
             (Gridbw_workload.Gen.generate (Gridbw_prng.Rng.create ~seed:7L ()) spec))
      in
      let s = Session.create ~id:0 ~peer:"promoted" () in
      let dst = Bytes.create 65536 in
      let served = ref 0 in
      Gc.full_major ();
      let _, promoted0, _ = Gc.counters () in
      let k = ref 0 in
      while !k < n do
        let m = Int.min 64 (n - !k) in
        for i = !k to !k + m - 1 do
          feed s frames.(i)
        done;
        let rec go () =
          match Session.next s with
          | Some (Session.Request req) ->
              Session.queue s (Admission.handle adm req);
              incr served;
              go ()
          | Some _ -> Alcotest.fail "an admit did not decode"
          | None -> ()
        in
        go ();
        if Admission.dirty adm then Admission.flush adm;
        while Session.pending s do
          Session.wrote s (Session.blit_out s dst)
        done;
        k := !k + m
      done;
      Gc.full_major ();
      let _, promoted1, _ = Gc.counters () in
      Admission.close adm;
      Alcotest.(check int) "admits served" n !served;
      let per_admit = (promoted1 -. promoted0) /. float_of_int n in
      Printf.printf "%.2f promoted words per admit\n" per_admit;
      if per_admit > admit_promoted_budget then
        Alcotest.failf "%.2f promoted words per admit, budget %.0f" per_admit
          admit_promoted_budget)

(* --- the decision table --- *)

(* Ids that share the home slot of [base] in a fresh table. *)
let home_mates base count =
  let d = Decisions.create () in
  let home = Decisions.home d base in
  let rec scan id acc n =
    if n = count then List.rev acc
    else if id <> base && Decisions.home d id = home then scan (id + 1) (id :: acc) (n + 1)
    else scan (id + 1) acc n
  in
  scan 1 [] 0

let max_id = (1 lsl 53) - 1

(* Ids worth reusing: small, negative, the ends of the protocol's range
   and ids that collide on their home slot. *)
let id_pool =
  Array.of_list
    ([ 0; 1; 2; 3; -1; -2; -77; max_id; -max_id; max_id - 1 ] @ home_mates 0 6
    @ List.map Int.neg (home_mates 5 3))

(* The design the decision table replaced, kept as its model: one
   [Hashtbl] entry per id holding the allocation itself, and a cancel
   preempting that allocation by physical identity. *)
type model_entry = M_booked of Allocation.t | M_refused of string | M_cancelled of Allocation.t

let model_handle ctl entries = function
  | Protocol.Admit { id; ingress; egress; volume; ts; tf; max_rate } -> (
      match Hashtbl.find_opt entries id with
      | Some (M_booked a | M_cancelled a) ->
          Protocol.Admitted
            { id; bw = a.Allocation.bw; sigma = a.Allocation.sigma; tau = a.Allocation.tau }
      | Some (M_refused reason) -> Protocol.Rejected { id; reason }
      | None -> (
          let r = Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate in
          match Online.try_admit ctl policy r ~at:(Float.max (Online.now ctl) ts) with
          | Types.Accepted a ->
              Hashtbl.replace entries id (M_booked a);
              Protocol.Admitted
                { id; bw = a.Allocation.bw; sigma = a.Allocation.sigma; tau = a.Allocation.tau }
          | Types.Rejected reason ->
              let reason = Types.reason_name reason in
              Hashtbl.replace entries id (M_refused reason);
              Protocol.Rejected { id; reason }))
  | Protocol.Query { id } ->
      let disposition =
        match Hashtbl.find_opt entries id with
        | None -> Protocol.Unknown
        | Some (M_refused reason) -> Protocol.Refused { reason }
        | Some (M_cancelled _) -> Protocol.Cancelled
        | Some (M_booked a) ->
            let bw = a.Allocation.bw and sigma = a.Allocation.sigma and tau = a.Allocation.tau in
            if tau <= Online.now ctl then Protocol.Done { bw; sigma; tau }
            else Protocol.Active { bw; sigma; tau }
      in
      Protocol.Status { id; disposition }
  | Protocol.Cancel { id } -> (
      match Hashtbl.find_opt entries id with
      | None -> Protocol.Cancel_failed { id; reason = "unknown id" }
      | Some (M_refused _) -> Protocol.Cancel_failed { id; reason = "was rejected" }
      | Some (M_cancelled _) -> Protocol.Cancel_ok { id }
      | Some (M_booked a) ->
          if Online.preempt ctl a then begin
            Hashtbl.replace entries id (M_cancelled a);
            Protocol.Cancel_ok { id }
          end
          else Protocol.Cancel_failed { id; reason = "transfer already finished" })
  | _ -> invalid_arg "model_handle: admit, query and cancel only"

(* One step of a generated session: a verb, an id (a fresh one, or one
   from the pool or from the ids already used) and an admit's shape. *)
type step = {
  verb : int;  (* 0-5 admit, 6-7 query, 8-9 cancel *)
  pick : int;  (* 0-5 a fresh id, 6-7 the pool, 8 an id used before, 9 a recent one *)
  which : int;
  gap : float;
  volume : float;
  rate : float;
  slack : float;
  ports : int;
}

let step_gen =
  QCheck2.Gen.(
    let* verb = int_range 0 9 and* pick = int_range 0 9 and* which = int_range 0 1_000_000 in
    let* gap = float_range 0. 2. and* volume = float_range 5. 400. in
    let* rate = float_range 5. 80. and* slack = float_range 1. 4. and* ports = int_range 0 3 in
    return { verb; pick; which; gap; volume; rate; slack; ports })

(* Run [steps] through a fresh [Admission] and the model, reply for
   reply; [None] when they agree throughout. *)
let table_against_model steps =
  let fabric = fabric2 () in
  let adm = Admission.create ~policy fabric in
  let ctl = Online.create fabric and entries = Hashtbl.create 64 in
  let used = ref [||] and nused = ref 0 and fresh = ref 1_000 and now = ref 0. in
  let use id =
    if !nused = Array.length !used then begin
      let a = Array.make (Int.max 16 (2 * !nused)) 0 in
      Array.blit !used 0 a 0 !nused;
      used := a
    end;
    !used.(!nused) <- id;
    incr nused
  in
  let id_of st =
    if st.pick = 8 && !nused > 0 then !used.(st.which mod !nused)
    else if st.pick = 9 && !nused > 0 then !used.(!nused - 1 - (st.which mod Int.min 8 !nused))
    else if st.pick >= 6 then id_pool.(st.which mod Array.length id_pool)
    else begin
      (* fresh ids alternate in sign *)
      incr fresh;
      if !fresh land 1 = 0 then !fresh else - !fresh
    end
  in
  let request st =
    let id = id_of st in
    match st.verb with
    | v when v <= 5 ->
        now := !now +. st.gap;
        use id;
        let ts = !now in
        admit ~id ~ingress:(st.ports land 1) ~egress:(st.ports lsr 1) ~volume:st.volume ~ts
          ~tf:(ts +. (st.slack *. st.volume /. st.rate)) ~max_rate:st.rate ()
    | 6 | 7 -> Protocol.Query { id }
    | _ -> Protocol.Cancel { id }
  in
  let rec go i = function
    | [] ->
        if
          Admission.accepted_count adm
          = Hashtbl.fold (fun _ e n -> match e with M_refused _ -> n | _ -> n + 1) entries 0
          && Admission.active_count adm = Online.active_count ctl
        then None
        else Some (Printf.sprintf "counts differ after %d steps" i)
    | st :: rest ->
        let req = request st in
        let got = Admission.handle adm req and want = model_handle ctl entries req in
        if got = want then go (i + 1) rest
        else
          Some
            (Format.asprintf "step %d, %a: table %a, model %a" i pp_request req
               Protocol.pp_response got Protocol.pp_response want)
  in
  go 0 steps

let prop_table_against_model =
  qcase ~count:25 "decision table: replies equal the Hashtbl model's"
    QCheck2.Gen.(list_size (int_range 1 1500) step_gen)
    (fun steps ->
      match table_against_model steps with
      | None -> true
      | Some why -> QCheck2.Test.fail_report why)

(* Long enough (≈1,480 rows) for the index to double six times and the
   rows to fill three pages. *)
let table_against_model_long () =
  let steps =
    QCheck2.Gen.generate ~rand:(Random.State.make [| 33 |]) ~n:4000 step_gen
  in
  match table_against_model steps with None -> () | Some why -> Alcotest.fail why

(* The table alone against a [Hashtbl], under the recovery's
   last-event-wins writes: regrants, refusals after grants, grants after
   refusals, cancels of any row.  Reasons arrive as fresh strings and
   come back interned. *)
type table_op = Grant of int * float * int | Refuse of int * int | Cancel_row of int

let table_op_gen =
  QCheck2.Gen.(
    let id =
      oneof
        [
          int_range (-40) 40;
          map (fun i -> id_pool.(i)) (int_range 0 (Array.length id_pool - 1));
          int_range (-max_id) max_id;
          map (fun b -> if b then max_int else min_int) bool;
        ]
    in
    frequency
      [
        (4, map3 (fun id x b -> Grant (id, x, b)) id (float_range 0. 1e6) (int_range 0 1_000_000));
        (3, map2 (fun id r -> Refuse (id, r)) id (int_range 0 3));
        (2, map (fun id -> Cancel_row id) id);
      ])

let reasons = [| "port-saturated"; "deadline-unreachable"; "revoked"; "gone" |]

let prop_table_last_write_wins =
  qcase ~count:60 "decision table: last write wins, as a Hashtbl's replace"
    QCheck2.Gen.(list_size (int_range 0 1500) table_op_gen)
    (fun ops ->
      let d = Decisions.create () and m = Hashtbl.create 16 in
      List.iter
        (function
          | Grant (id, x, b) ->
              Decisions.grant d id ~bw:x ~sigma:(x +. 1.) ~tau:(x +. 2.) ~booking:b;
              Hashtbl.replace m id (`Granted (x, b))
          | Refuse (id, r) ->
              (* a copy: equal to the interned reason, not the same string *)
              Decisions.refuse d id (String.init (String.length reasons.(r)) (String.get reasons.(r)));
              Hashtbl.replace m id (`Refused r)
          | Cancel_row id -> (
              let row = Decisions.find d id in
              if row >= 0 then Decisions.cancel d row;
              match Hashtbl.find_opt m id with
              | Some (`Granted g) -> Hashtbl.replace m id (`Cancelled g)
              | _ -> ()))
        ops;
      let agree id =
        let row = Decisions.find d id in
        match (Hashtbl.find_opt m id, row) with
        | None, -1 -> true
        | None, _ | Some _, -1 -> false
        | Some (`Granted (x, b)), _ | Some (`Cancelled (x, b)), _ ->
            Decisions.state d row
            = (match Hashtbl.find m id with `Granted _ -> Decisions.Granted | _ -> Decisions.Cancelled)
            && Decisions.bw d row = x
            && Decisions.sigma d row = x +. 1.
            && Decisions.tau d row = x +. 2.
            && Decisions.booking d row = b
        | Some (`Refused r), _ ->
            Decisions.state d row = Decisions.Refused
            && String.equal (Decisions.reason d row) reasons.(r)
      in
      Decisions.length d = Hashtbl.length m
      && Decisions.slots d >= 2 * Decisions.length d
      && Hashtbl.fold (fun id _ ok -> ok && agree id) m true
      && List.for_all
           (fun id -> Hashtbl.mem m id || Decisions.find d id = -1)
           (Array.to_list id_pool))

(* Refusals share one copy of each reason, and a refused row holds no
   float: [n] refusals and [n] refusals plus [g] grants differ by the
   grants' 32 bytes each (three doubles and a booking number), up to
   one page of slack. *)
let table_layout () =
  let bytes d = 8 * Obj.reachable_words (Obj.repr d) in
  let n = 20_000 and g = 6_000 in
  let refusals = Decisions.create () and mixed = Decisions.create () in
  for id = 0 to n - 1 do
    Decisions.refuse refusals id (Printf.sprintf "reason %d" (id mod 3));
    if id mod 10 < 3 then
      Decisions.grant mixed id ~bw:1. ~sigma:2. ~tau:3. ~booking:(id / 10 * 3 + (id mod 10))
    else Decisions.refuse mixed id (Printf.sprintf "reason %d" (id mod 3))
  done;
  let r0 = Decisions.find refusals 0 and r3 = Decisions.find refusals 3 in
  Alcotest.(check bool) "one copy per reason" true
    (Decisions.reason refusals r0 == Decisions.reason refusals r3);
  let page = 32 * Decisions.page_rows in
  let extra = bytes mixed - bytes refusals in
  if extra < 32 * g || extra > (32 * g) + page then
    Alcotest.failf "%d grants took %d bytes beside the refusals" g extra;
  Printf.printf "%.1f bytes per refusal, %.1f per decision with 30%% grants\n"
    (float_of_int (bytes refusals) /. float_of_int n)
    (float_of_int (bytes mixed) /. float_of_int n)

(* A journal that books id 7 twice: the first booking still held, the
   second finished by the time of the cancel.  The table cancels the
   booking its row records, the second, as the design it replaced did
   (by the allocation's identity); a "newest held booking of the id"
   rule would cancel the first instead. *)
let recovered_cancel_targets_the_recorded_booking () =
  with_tmpdir (fun dir ->
      let fabric = fabric2 () in
      let config = store_config () in
      let store = Store.create ~config ~dir fabric in
      let accept ~time ~port ~volume ~ts ~tf ~bw =
        Event.Accept
          {
            time;
            id = 7;
            ingress = port;
            egress = port;
            volume;
            ts;
            tf;
            max_rate = bw;
            bw;
            sigma = ts;
          }
      in
      List.iter (Store.log store)
        [
          (* an early cancel of the id keeps its two bookings out of the
             audit's duplicate check *)
          Event.Preempt { time = 0.; id = 7; bw = 1. };
          accept ~time:0. ~port:0 ~volume:1000. ~ts:0. ~tf:100. ~bw:10.;
          accept ~time:1. ~port:1 ~volume:10. ~ts:1. ~tf:5. ~bw:10.;
          Event.Reject
            { time = 3.; id = 8; reason = "port-saturated"; port = None; headroom = None };
        ];
      Store.close store;
      match Store.recover ~config ~dir () with
      | Error e -> Alcotest.fail e
      | Ok r -> (
          match Admission.of_recovered ~policy r with
          | Error e -> Alcotest.fail e
          | Ok t ->
              Alcotest.(check int) "the first booking is held" 1 (Admission.active_count t);
              (match Admission.handle t (Protocol.Query { id = 7 }) with
              | Protocol.Status { disposition = Protocol.Done { tau = 2.; _ }; _ } -> ()
              | resp -> Alcotest.failf "query: %a" Protocol.pp_response resp);
              (match Admission.handle t (Protocol.Cancel { id = 7 }) with
              | Protocol.Cancel_failed { id = 7; reason = "transfer already finished" } -> ()
              | resp -> Alcotest.failf "cancel: %a" Protocol.pp_response resp);
              Alcotest.(check int) "still held" 1 (Admission.active_count t);
              (match Admission.handle t (Protocol.Query { id = 8 }) with
              | Protocol.Status { disposition = Protocol.Refused { reason = "port-saturated" }; _ }
                -> ()
              | resp -> Alcotest.failf "query 8: %a" Protocol.pp_response resp);
              Admission.close t))

let suites =
  [
    ( "serve.frame",
      [
        case "encode layout" frame_encode_shape;
        prop_frame_chunked_roundtrip;
        case "truncated prefixes wait for bytes" frame_truncated_prefix_waits;
        case "malformed frames: typed, sticky errors" frame_errors_are_typed_and_sticky;
        case "blocking channel helpers" frame_blocking_io;
        case "a byte-at-a-time frame costs linear memory" frame_drip_fed_is_linear;
      ] );
    ( "serve.protocol",
      [
        prop_request_roundtrip;
        prop_response_roundtrip;
        prop_response_bytes_pinned;
        case "reply bytes, pinned literally" response_bytes_literal;
        prop_admit_decode_differential;
        case "admit decode agrees on every cut" admit_decode_cut_at_every_byte;
        case "a well-formed admit takes the scan" admit_decode_takes_the_scan;
        case "malformed payloads: typed decode errors" protocol_rejects_bad_payloads;
      ] );
    ( "serve.session",
      [
        case "payload errors keep the connection" session_keeps_going_after_bad_payload;
        case "framing errors close the connection" session_closes_on_broken_framing;
        case "responses leave framed" session_output_is_framed;
        prop_session_partial_writes;
        case "queueing without draining costs linear memory" session_queue_is_linear;
        case "blit_out copies one buffer's worth, allocating nothing" session_blit_out_is_bounded;
        case "one admit's words on the serving path, budgeted" admit_words_per_op;
        case "words promoted per admit, budgeted" admit_promoted_words;
      ] );
    ( "serve.decisions",
      [
        prop_table_against_model;
        case "against the model, across index growths and pages" table_against_model_long;
        prop_table_last_write_wins;
        case "interned reasons; a refusal holds no float" table_layout;
        case "a recovered cancel targets the recorded booking"
          recovered_cancel_targets_the_recorded_booking;
      ] );
    ( "serve.admission",
      [
        case "decide, reject, validate, idempotent retries" admission_decides_and_is_idempotent;
        case "query and cancel lifecycle" admission_query_and_cancel;
        case "ids beyond 2^53 are bad requests" admission_refuses_out_of_range_ids;
        case "journal, recover, bit-identical decisions" admission_recovery_round_trip;
        case "journaled ids beyond 2^53 recover" recovery_reads_ids_beyond_2p53;
        case "recovery keeps the clock of a trailing reject" recovery_keeps_a_trailing_reject_clock;
        case "engine-driven journals refused" of_recovered_refuses_engine_journals;
        case "metric series of a journaled run, pinned" admission_metric_series;
      ] );
    ( "serve.flight",
      [
        case "ring file wraps, keeps the newest spans" flight_wraps_and_keeps_newest;
        case "torn tail drops the damaged frame only" flight_tolerates_torn_tail;
      ] );
    ( "serve.daemon",
      [
        slow_case "end to end: loadgen, shutdown, restart" end_to_end_live_daemon;
        case "loadgen: one request's percentiles are its latency" loadgen_single_request_percentiles;
        case "malformed clients get typed errors" daemon_survives_malformed_clients;
        case "per-request series count once per request" daemon_metric_series;
        case "a pipelined burst is group-committed" daemon_group_commits_a_pipelined_burst;
        case "/metrics: 200, 404, over-long lines, never a connection" daemon_serves_metrics;
        case "shutdown drains every pending reply in order" daemon_drains_replies_on_shutdown;
        case "seed 7: reply and journal bytes, pinned" serving_path_bytes_pinned;
      ] );
  ]
