module Event = Gridbw_obs.Event
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Rate_profile = Gridbw_alloc.Rate_profile

type t = {
  events : Event.t list;
  requests : Request.t list;
  accepted : Allocation.t list;
}

let monotone events =
  let rec go last = function
    | [] -> true
    | e :: rest ->
        let t = Event.time e in
        t >= last && go t rest
  in
  go neg_infinity events

let request_of ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate =
  Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate

let of_events events =
  try
    (* [all] is the original input list: arrivals carry their input-list
       position, and summary float accumulation is order-sensitive. *)
    let requests =
      List.filter_map
        (function
          | Event.Arrival { seq; id; ingress; egress; volume; ts; tf; max_rate; _ } ->
              Some (seq, request_of ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate)
          | _ -> None)
        events
      |> List.stable_sort (fun (a, _) (b, _) -> compare (a : int) b)
      |> List.map snd
    in
    (* [accepted] in decision order: Accept/Reshape events are emitted as
       decisions are taken, and embed the full request, so the allocation
       (tau included) is rebuilt from the trace alone.  A Reshape both
       admits its own request and revises the profiles of still-pending
       earlier admits, so the final list carries each transfer's last
       schedule, exactly like the live engine's result. *)
    let accepted =
      let tbl = Hashtbl.create 64 in
      let rev_order = ref [] in
      let admit id a =
        if not (Hashtbl.mem tbl id) then rev_order := id :: !rev_order;
        Hashtbl.replace tbl id a
      in
      List.iter
        (function
          | Event.Accept { id; ingress; egress; volume; ts; tf; max_rate; bw; sigma; _ } ->
              let request = request_of ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate in
              admit id (Allocation.make ~request ~bw ~sigma)
          | Event.Reshape { id; ingress; egress; volume; ts; tf; max_rate; profile; revised; _ }
            ->
              Array.iter
                (fun (rid, segs) ->
                  match Hashtbl.find_opt tbl rid with
                  | None -> ()
                  | Some (old : Allocation.t) ->
                      Hashtbl.replace tbl rid
                        (Allocation.of_profile ~request:old.Allocation.request
                           (Rate_profile.of_triples segs)))
                revised;
              let request = request_of ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate in
              admit id (Allocation.of_profile ~request (Rate_profile.of_triples profile))
          | _ -> ())
        events;
      List.rev_map (fun id -> Hashtbl.find tbl id) !rev_order
    in
    Ok { events; requests; accepted }
  with Invalid_argument msg -> Error ("invalid event fields: " ^ msg)

(* Decode record by record: event frames are kept, span frames (serve
   traces interleave them) are skipped by their tag. *)
let of_string content =
  let module Codec = Gridbw_wire.Codec in
  let module Event_codec = Gridbw_obs.Event_codec in
  let len = String.length content in
  let rec go n acc pos =
    if pos >= len then of_events (List.rev acc)
    else
      let fail msg = Error (Printf.sprintf "record %d: %s" n msg) in
      match Gridbw_wire.Frame.decode content ~pos with
      | Codec.Incomplete -> fail "truncated trace"
      | Codec.Corrupt msg -> fail msg
      | Codec.Value ((tag, body), next) -> (
          if tag = Gridbw_obs.Span.frame_tag then go (n + 1) acc next
          else if tag <> Event_codec.frame_tag then
            fail (Printf.sprintf "unexpected frame tag %d" tag)
          else
            match Event_codec.Binary.of_body body with
            | Ok e -> go (n + 1) (e :: acc) next
            | Error msg -> fail msg)
  in
  go 1 [] 0

let of_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))

let fabric t =
  let rec leading acc = function
    | Event.Capacity { side; port; capacity; _ } :: rest ->
        leading ((side, port, capacity) :: acc) rest
    | _ -> acc
  in
  match leading [] t.events with
  | [] -> Error `No_prefix
  | caps ->
      let dim side =
        List.fold_left (fun m (s, p, _) -> if s = side then max m (p + 1) else m) 0 caps
      in
      let side_caps side n =
        let a = Array.make n Float.nan in
        (* [caps] is reversed stream order, so the first write per port wins:
           the latest leading event for a revised port sticks. *)
        List.iter
          (fun (s, p, c) -> if s = side && Float.is_nan a.(p) then a.(p) <- c)
          caps;
        a
      in
      let side_name = function Event.Ingress -> "ingress" | Event.Egress -> "egress" in
      let check side a =
        if Array.length a = 0 then
          Error (`Invalid (Printf.sprintf "no %s port in capacity prefix" (side_name side)))
        else
          let bad = ref None in
          Array.iteri
            (fun p c ->
              if !bad = None then
                if Float.is_nan c then
                  bad :=
                    Some
                      (Printf.sprintf "%s port %d missing from capacity prefix" (side_name side) p)
                else if not (Float.is_finite c && c > 0.) then
                  bad :=
                    Some
                      (Printf.sprintf "%s port %d has invalid capacity %g" (side_name side) p c))
            a;
          match !bad with None -> Ok a | Some msg -> Error (`Invalid msg)
      in
      let ( let* ) = Result.bind in
      let* ingress = check Event.Ingress (side_caps Event.Ingress (dim Event.Ingress)) in
      let* egress = check Event.Egress (side_caps Event.Egress (dim Event.Egress)) in
      Ok (Gridbw_topology.Fabric.make ~ingress ~egress)

let summary fabric t = Summary.compute fabric ~all:t.requests ~accepted:t.accepted
