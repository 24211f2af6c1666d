module Event = Gridbw_obs.Event
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Rate_profile = Gridbw_alloc.Rate_profile

type t = {
  events : Event.t list;
  fabric : Fabric.t;
  revised : bool;
  requests : Request.t list;
  accepted : (float * Allocation.t) list;
  decided : int -> bool;
  cancelled : int list;
  bookings : (Allocation.t * float) list;
  survivors : Allocation.t list;
}

(* A booking and the time a cancel cut it, [infinity] until one does. *)
type cell = { mutable booking : Allocation.t; mutable cut : float }

type error = No_prefix | Bad_prefix of string | Bad_event of int * string

let describe = function
  | No_prefix -> "no capacity prefix"
  | Bad_prefix msg -> "torn capacity prefix: " ^ msg
  | Bad_event (k, msg) -> Printf.sprintf "event %d: %s" (k + 1) msg

let monotone events =
  let rec go last = function
    | [] -> true
    | e :: rest ->
        let t = Event.time e in
        t >= last && go t rest
  in
  go neg_infinity events

exception Bad of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad msg)) fmt

(* The fabric of the leading [Capacity] events and how many there are.
   [ports] (a store header's counts) fixes each side's port count;
   without it a side has as many ports as its highest named one + 1.
   Every port needs a finite positive capacity; of two events for one
   port the later one counts. *)
let prefix ?ports events =
  let rec leading = function
    | Event.Capacity { side; port; capacity; _ } :: rest -> (side, port, capacity) :: leading rest
    | _ -> []
  in
  let caps = leading events in
  let side_caps side declared =
    let name = Event.side_name side in
    let n =
      match declared with
      | Some n -> n
      | None -> List.fold_left (fun m (s, p, _) -> if s = side then max m (p + 1) else m) 0 caps
    in
    let a = Array.make n Float.nan in
    List.iter
      (fun (s, p, c) ->
        if s = side then begin
          if p < 0 || p >= n then bad "%s port %d out of range" name p;
          a.(p) <- c
        end)
      caps;
    if n = 0 then bad "no %s port in capacity prefix" name;
    Array.iteri
      (fun p c ->
        if Float.is_nan c then bad "%s port %d missing from capacity prefix" name p
        else if not (Float.is_finite c && c > 0.) then
          bad "%s port %d has invalid capacity %g" name p c)
      a;
    a
  in
  if caps = [] && ports = None then Error No_prefix
  else
    try
      let ingress = side_caps Event.Ingress (Option.map fst ports) in
      let egress = side_caps Event.Egress (Option.map snd ports) in
      Ok (Fabric.make ~ingress ~egress, List.length caps)
    with Bad msg -> Error (Bad_prefix msg)

let of_events ?ports ?default events =
  let ( let* ) = Result.bind in
  let* fabric, n_prefix =
    match (prefix ?ports events, default) with
    | Error No_prefix, Some default -> Ok (default (), 0)
    | r, _ -> r
  in
  let check what side port =
    let n =
      if side = Event.Ingress then Fabric.ingress_count fabric else Fabric.egress_count fabric
    in
    if port < 0 || port >= n then
      bad "%s names %s port %d, outside the fabric's %d" (what ()) (Event.side_name side) port n
  in
  let request ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate =
    let what () = Printf.sprintf "request %d" id in
    check what Event.Ingress ingress;
    check what Event.Egress egress;
    Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate
  in
  (* Each booking sits in a cell, so a [Reshape] revision rewrites every
     booking of the revised id, and a [Preempt] cuts, once, the booking
     its id holds when it comes; the latest cell of an id is its last. *)
  let cells = Hashtbl.create 1024 and decided = Hashtbl.create 1024 in
  let gone = Hashtbl.create 16 in
  let rev_booked = ref [] and rev_requests = ref [] and rev_cancelled = ref [] in
  let revisions = ref false in
  let book time id a =
    let cell = { booking = a; cut = Float.infinity } in
    Hashtbl.replace decided id ();
    Hashtbl.add cells id cell;
    rev_booked := (time, cell) :: !rev_booked
  in
  let step i ev =
    match ev with
    | Event.Arrival { seq; id; ingress; egress; volume; ts; tf; max_rate; _ } ->
        let request = request ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate in
        rev_requests := (seq, request) :: !rev_requests
    | Event.Accept { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma; _ } ->
        let request = request ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate in
        book time id (Allocation.make ~request ~bw ~sigma)
    | Event.Reshape { time; id; ingress; egress; volume; ts; tf; max_rate; profile; revised; _ } ->
        (* One record: the revisions of pending admits and this admit. *)
        Array.iter
          (fun (rid, segs) ->
            match Hashtbl.find_all cells rid with
            | [] -> ()
            | last :: _ as all ->
                let a =
                  Allocation.of_profile ~request:last.booking.Allocation.request
                    (Rate_profile.of_triples segs)
                in
                List.iter (fun cell -> cell.booking <- a) all)
          revised;
        let request = request ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate in
        book time id (Allocation.of_profile ~request (Rate_profile.of_triples profile))
    | Event.Reject { id; _ } -> Hashtbl.replace decided id ()
    | Event.Preempt { time; id; _ } ->
        (match Hashtbl.find_opt cells id with
        | Some cell when cell.cut = Float.infinity -> cell.cut <- time
        | _ -> ());
        Hashtbl.replace gone id ();
        rev_cancelled := id :: !rev_cancelled
    | Event.Capacity { side; port; capacity; _ } ->
        if i >= n_prefix then begin
          revisions := true;
          check (fun () -> "capacity revision") side port;
          if not (Float.is_finite capacity && capacity > 0.) then
            bad "capacity revision of %s port %d to %g" (Event.side_name side) port capacity
        end
    | Event.Shed _ -> revisions := true
  in
  let at = ref 0 in
  match List.iteri (fun i ev -> at := i; step i ev) events with
  | exception Bad msg -> Error (Bad_event (!at, msg))
  | exception Invalid_argument msg -> Error (Bad_event (!at, "invalid event fields: " ^ msg))
  | () ->
      let accepted = List.rev_map (fun (time, cell) -> (time, cell.booking)) !rev_booked in
      Ok
        {
          events;
          fabric;
          revised = !revisions;
          (* input-list order: summary float accumulation is order-sensitive *)
          requests =
            List.rev !rev_requests
            |> List.stable_sort (fun (a, _) (b, _) -> compare (a : int) b)
            |> List.map snd;
          accepted;
          decided = Hashtbl.mem decided;
          cancelled = List.rev !rev_cancelled;
          bookings = List.rev_map (fun (_, cell) -> (cell.booking, cell.cut)) !rev_booked;
          survivors =
            List.filter_map
              (fun (_, (a : Allocation.t)) ->
                if Hashtbl.mem gone a.Allocation.request.Request.id then None else Some a)
              accepted;
        }

let iter_commitments bookings f =
  List.iter
    (fun ((a : Allocation.t), cut) ->
      let r = a.Allocation.request in
      let step from_ until rate =
        let until = Float.min until cut in
        if from_ < until then f r from_ until rate
      in
      match a.Allocation.profile with
      | Some p ->
          List.iter
            (fun (s : Rate_profile.seg) -> step s.from_ s.until s.rate)
            (Rate_profile.segments p)
      | None -> step a.Allocation.sigma a.Allocation.tau a.Allocation.bw)
    bookings

(* Decode record by record: event frames are kept, span frames (serve
   traces interleave them) are skipped by their tag. *)
let decode content =
  let module Codec = Gridbw_wire.Codec in
  let module Event_codec = Gridbw_obs.Event_codec in
  let len = String.length content in
  let rec go n acc pos =
    if pos >= len then Ok (List.rev acc)
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

let of_string ?default content =
  Result.bind (decode content) (fun events ->
      Result.map_error describe (of_events ?default events))

let of_file ?default path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> of_string ?default (really_input_string ic (in_channel_length ic)))

let summary t =
  Summary.compute t.fabric ~all:t.requests ~accepted:(List.map snd t.accepted)
