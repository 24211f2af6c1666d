(* In-memory spans for the traced run, recorded from the benchmark's own
   code around each call into a layer.  A span covers a batch of calls
   (never one sub-microsecond call): [calls] says how many.  Spans are
   only written out, as JSONL, once the run is over. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root *)
  name : string;
  req : int;  (** the request (round of pipelined requests) the span belongs to *)
  start_ns : int64;
  stop_ns : int64;
  calls : int;
}

let now_ns = Monotonic_clock.now
let recorded : span list ref = ref []
let next_id = ref 0
let enabled = ref true

let reset () =
  recorded := [];
  next_id := 0

(* Run [f] under a span; [f] receives the span's id, to parent children.
   With recording off, [f] runs with no clock read. *)
let span ?(parent = -1) ?(req = -1) ?(calls = 1) name f =
  if not !enabled then f (-1)
  else begin
    let id = !next_id in
    incr next_id;
    let start_ns = now_ns () in
    let r = f id in
    let stop_ns = now_ns () in
    recorded := { id; parent; name; req; start_ns; stop_ns; calls } :: !recorded;
    r
  end

let spans () = List.rev !recorded
let dur s = Int64.to_float (Int64.sub s.stop_ns s.start_ns)

type layer = { self_ns : float; calls : int; count : int  (** spans *) }

(* Self time per span name: a span's duration minus the part its
   children cover. *)
let layers () =
  let all = spans () in
  let child = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    all;
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let self = dur s -. Option.value ~default:0. (Hashtbl.find_opt child s.id) in
      let l =
        Option.value ~default:{ self_ns = 0.; calls = 0; count = 0 } (Hashtbl.find_opt tbl s.name)
      in
      Hashtbl.replace tbl s.name
        { self_ns = l.self_ns +. self; calls = l.calls + s.calls; count = l.count + 1 })
    all;
  tbl

(* Every child lies inside its parent's interval and shares its request. *)
let nesting_errors () =
  let all = spans () in
  let by_id = Hashtbl.create 4096 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) all;
  List.fold_left
    (fun acc s ->
      if s.parent < 0 then acc
      else
        match Hashtbl.find_opt by_id s.parent with
        | None -> acc + 1
        | Some p ->
            if s.start_ns < p.start_ns || s.stop_ns > p.stop_ns || s.req <> p.req then acc + 1
            else acc)
    0 all

let write path =
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld,\"calls\":%d}\n"
            s.id s.parent s.name s.req s.start_ns s.stop_ns s.calls)
        (spans ()))
