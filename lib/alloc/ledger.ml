module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request

type t = {
  mutable fabric : Fabric.t;
  ingress : Timeline.t array;
  egress : Timeline.t array;
  mutable probes : int;
}

let create fabric =
  {
    fabric;
    ingress = Array.init (Fabric.ingress_count fabric) (fun _ -> Timeline.create ());
    egress = Array.init (Fabric.egress_count fabric) (fun _ -> Timeline.create ());
    probes = 0;
  }

let probe_count t = t.probes

let fabric t = t.fabric

let set_fabric t fabric =
  if not (Fabric.same_shape t.fabric fabric) then
    invalid_arg "Ledger.set_fabric: port counts differ";
  t.fabric <- fabric

(* Resolve a port to its timeline, validating the index against the fabric.
   [what] names the calling operation in the error message. *)
let timeline t what port =
  match (port : Port.t) with
  | Port.Ingress i ->
      if not (Fabric.valid_ingress t.fabric i) then
        invalid_arg (Printf.sprintf "Ledger.%s: bad ingress port" what);
      t.ingress.(i)
  | Port.Egress e ->
      if not (Fabric.valid_egress t.fabric e) then
        invalid_arg (Printf.sprintf "Ledger.%s: bad egress port" what);
      t.egress.(e)

let capacity t port =
  match (port : Port.t) with
  | Port.Ingress i ->
      if not (Fabric.valid_ingress t.fabric i) then invalid_arg "Ledger.capacity: bad ingress port";
      Fabric.ingress_capacity t.fabric i
  | Port.Egress e ->
      if not (Fabric.valid_egress t.fabric e) then invalid_arg "Ledger.capacity: bad egress port";
      Fabric.egress_capacity t.fabric e

(* Relative slack absorbing float accumulation in capacity comparisons. *)
let le_cap used cap = used <= cap *. (1. +. 1e-9)

(* A zero-length interval ([from_ = until]) holds nothing, as in the
   feasibility sweep: it always fits, and booking or releasing it is a
   no-op.  Inverted and NaN bounds still raise. *)
let fits_interval t ~ingress ~egress ~bw ~from_ ~until =
  if not (Fabric.valid_ingress t.fabric ingress) then
    invalid_arg "Ledger.fits_interval: bad ingress port";
  if not (Fabric.valid_egress t.fabric egress) then
    invalid_arg "Ledger.fits_interval: bad egress port";
  if from_ = until then true
  else begin
    if from_ > until then invalid_arg "Ledger.fits_interval: inverted interval";
    t.probes <- t.probes + 2;
    le_cap
      (Timeline.max_over t.ingress.(ingress) ~from_ ~until +. bw)
      (Fabric.ingress_capacity t.fabric ingress)
    && le_cap
         (Timeline.max_over t.egress.(egress) ~from_ ~until +. bw)
         (Fabric.egress_capacity t.fabric egress)
  end

let ports (a : Allocation.t) =
  (a.Allocation.request.Request.ingress, a.Allocation.request.Request.egress)

let fits t a =
  let i, e = ports a in
  fits_interval t ~ingress:i ~egress:e ~bw:a.Allocation.bw ~from_:a.Allocation.sigma
    ~until:a.Allocation.tau

let reserve_interval t ~ingress ~egress ~bw ~from_ ~until =
  if from_ <> until then begin
    Timeline.add t.ingress.(ingress) ~from_ ~until bw;
    Timeline.add t.egress.(egress) ~from_ ~until bw
  end

let release_interval t ~ingress ~egress ~bw ~from_ ~until =
  if from_ <> until then begin
    Timeline.remove t.ingress.(ingress) ~from_ ~until bw;
    Timeline.remove t.egress.(egress) ~from_ ~until bw
  end

let reserve t a =
  if not (fits t a) then invalid_arg "Ledger.reserve: allocation exceeds port capacity";
  let i, e = ports a in
  reserve_interval t ~ingress:i ~egress:e ~bw:a.Allocation.bw ~from_:a.Allocation.sigma
    ~until:a.Allocation.tau

let release t a =
  let i, e = ports a in
  release_interval t ~ingress:i ~egress:e ~bw:a.Allocation.bw ~from_:a.Allocation.sigma
    ~until:a.Allocation.tau

let usage_at t port time = Timeline.usage_at (timeline t "usage_at" port) time

let max_over t port ~from_ ~until =
  t.probes <- t.probes + 1;
  Timeline.max_over (timeline t "max_over" port) ~from_ ~until

let argmax_over t port ~from_ ~until =
  t.probes <- t.probes + 1;
  Timeline.argmax_over (timeline t "argmax_over" port) ~from_ ~until

let headroom_over t port ~from_ ~until =
  t.probes <- t.probes + 1;
  capacity t port -. Timeline.max_over (timeline t "headroom_over" port) ~from_ ~until

let breakpoints t port = Timeline.breakpoints (timeline t "breakpoints" port)

let retire_before t h =
  Array.iter (fun tl -> Timeline.retire_before tl h) t.ingress;
  Array.iter (fun tl -> Timeline.retire_before tl h) t.egress

let within_capacity t =
  let ok = ref true in
  Array.iteri
    (fun i p ->
      if not (le_cap (Timeline.peak p) (Fabric.ingress_capacity t.fabric i)) then ok := false)
    t.ingress;
  Array.iteri
    (fun e p ->
      if not (le_cap (Timeline.peak p) (Fabric.egress_capacity t.fabric e)) then ok := false)
    t.egress;
  !ok

let reserved_volume t = Array.fold_left (fun acc p -> acc +. Timeline.integral p) 0.0 t.ingress

(* --- dump and restore (a ledger copy) --- *)

type segment = { seg_from : float; seg_until : float; seg_level : float }
type dump = { dump_ingress : segment list array; dump_egress : segment list array }

let dump_timeline tl =
  Timeline.fold_segments tl ~init: []
    ~f:(fun acc ~from_ ~until level ->
      if level = 0.0 then acc else { seg_from = from_; seg_until = until; seg_level = level } :: acc)
  |> List.rev

let dump t =
  {
    dump_ingress = Array.map dump_timeline t.ingress;
    dump_egress = Array.map dump_timeline t.egress;
  }

let restore_timeline what segs =
  let tl = Timeline.create () in
  List.iter
    (fun { seg_from; seg_until; seg_level } ->
      if
        not
          (Float.is_finite seg_from && Float.is_finite seg_until && Float.is_finite seg_level
         && seg_from < seg_until)
      then invalid_arg (Printf.sprintf "Ledger.restore: malformed %s segment" what);
      if seg_level <> 0.0 then Timeline.add tl ~from_:seg_from ~until:seg_until seg_level)
    segs;
  tl

let restore fabric d =
  if
    Array.length d.dump_ingress <> Fabric.ingress_count fabric
    || Array.length d.dump_egress <> Fabric.egress_count fabric
  then invalid_arg "Ledger.restore: dump port counts do not match the fabric";
  {
    fabric;
    ingress = Array.map (restore_timeline "ingress") d.dump_ingress;
    egress = Array.map (restore_timeline "egress") d.dump_egress;
    probes = 0;
  }
