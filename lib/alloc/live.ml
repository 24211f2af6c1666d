module Fabric = Gridbw_topology.Fabric

type t = {
  mutable fabric : Fabric.t;
  ali : float array;
  ale : float array;
  mutable probes : int;
}

let create fabric =
  {
    fabric;
    ali = Array.make (Fabric.ingress_count fabric) 0.0;
    ale = Array.make (Fabric.egress_count fabric) 0.0;
    probes = 0;
  }

let probe_count t = t.probes

let fabric t = t.fabric

let set_fabric t fabric =
  if not (Fabric.same_shape t.fabric fabric) then
    invalid_arg "Live.set_fabric: port counts differ";
  t.fabric <- fabric
let ingress_used t i = t.ali.(i)
let egress_used t e = t.ale.(e)

let le_cap used cap = used <= cap *. (1. +. 1e-9)

let fits t ~ingress ~egress ~bw =
  t.probes <- t.probes + 2;
  le_cap (t.ali.(ingress) +. bw) (Fabric.ingress_capacity t.fabric ingress)
  && le_cap (t.ale.(egress) +. bw) (Fabric.egress_capacity t.fabric egress)

let grab t ~ingress ~egress ~bw =
  t.ali.(ingress) <- t.ali.(ingress) +. bw;
  t.ale.(egress) <- t.ale.(egress) +. bw

let clamp x = if x < 0. then 0. else x

let release t ~ingress ~egress ~bw =
  t.ali.(ingress) <- clamp (t.ali.(ingress) -. bw);
  t.ale.(egress) <- clamp (t.ale.(egress) -. bw)

(* Per-side halves of the operations above, for shards that own only one
   end of a route.  The arithmetic expressions are copied verbatim from
   the two-sided forms: a sharded run that performs [fits_ingress] on one
   shard and [fits_egress] on another must agree bit-for-bit with an
   unsharded [fits]. *)

let fits_ingress t ~ingress ~bw =
  t.probes <- t.probes + 1;
  le_cap (t.ali.(ingress) +. bw) (Fabric.ingress_capacity t.fabric ingress)

let fits_egress t ~egress ~bw =
  t.probes <- t.probes + 1;
  le_cap (t.ale.(egress) +. bw) (Fabric.egress_capacity t.fabric egress)

let grab_ingress t ~ingress ~bw = t.ali.(ingress) <- t.ali.(ingress) +. bw
let grab_egress t ~egress ~bw = t.ale.(egress) <- t.ale.(egress) +. bw
let release_ingress t ~ingress ~bw = t.ali.(ingress) <- clamp (t.ali.(ingress) -. bw)
let release_egress t ~egress ~bw = t.ale.(egress) <- clamp (t.ale.(egress) -. bw)

let try_grab t ~ingress ~egress ~bw =
  let ok = fits t ~ingress ~egress ~bw in
  if ok then grab t ~ingress ~egress ~bw;
  ok

let reset t =
  Array.fill t.ali 0 (Array.length t.ali) 0.0;
  Array.fill t.ale 0 (Array.length t.ale) 0.0
