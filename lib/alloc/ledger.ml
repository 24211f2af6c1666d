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

(* The fabric and the probe counter carry over; every timeline's node
   pool is copied array for array, so the copy answers with the same
   bits. *)
let copy t =
  { t with ingress = Array.map Timeline.copy t.ingress; egress = Array.map Timeline.copy t.egress }

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

let argmax_over t port ~from_ ~until =
  t.probes <- t.probes + 1;
  Timeline.argmax_over (timeline t "argmax_over" port) ~from_ ~until

let headroom_over t port ~from_ ~until =
  t.probes <- t.probes + 1;
  capacity t port -. Timeline.max_over (timeline t "headroom_over" port) ~from_ ~until

let breakpoints_over t port ~from_ ~until =
  Timeline.breakpoints_over (timeline t "breakpoints_over" port) ~from_ ~until

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
