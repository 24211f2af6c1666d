type t = { ingress : float array; egress : float array }

let check_side name caps =
  if Array.length caps = 0 then invalid_arg (Printf.sprintf "Fabric.make: no %s ports" name);
  Array.iter
    (fun c ->
      if not (Float.is_finite c) || c <= 0. then
        invalid_arg (Printf.sprintf "Fabric.make: %s capacities must be finite and positive" name))
    caps

let make ~ingress ~egress =
  check_side "ingress" ingress;
  check_side "egress" egress;
  { ingress = Array.copy ingress; egress = Array.copy egress }

let uniform ~ingress_count ~egress_count ~capacity =
  if ingress_count <= 0 || egress_count <= 0 then
    invalid_arg "Fabric.uniform: port counts must be positive";
  make ~ingress:(Array.make ingress_count capacity) ~egress:(Array.make egress_count capacity)

(* Section 4.3: 10 ingress + 10 egress points at 1 GB/s; bandwidth unit is MB/s. *)
let paper_default () = uniform ~ingress_count:10 ~egress_count:10 ~capacity:1000.0

let ingress_count t = Array.length t.ingress
let egress_count t = Array.length t.egress

let same_shape a b =
  Array.length a.ingress = Array.length b.ingress
  && Array.length a.egress = Array.length b.egress

let ingress_capacity t i =
  if i < 0 || i >= Array.length t.ingress then invalid_arg "Fabric.ingress_capacity: out of range";
  t.ingress.(i)

let egress_capacity t e =
  if e < 0 || e >= Array.length t.egress then invalid_arg "Fabric.egress_capacity: out of range";
  t.egress.(e)

let sum = Array.fold_left ( +. ) 0.0
let total_ingress_capacity t = sum t.ingress
let total_egress_capacity t = sum t.egress
let half_total_capacity t = 0.5 *. (total_ingress_capacity t +. total_egress_capacity t)

let valid_ingress t i = i >= 0 && i < Array.length t.ingress
let valid_egress t e = e >= 0 && e < Array.length t.egress

let equal a b = a.ingress = b.ingress && a.egress = b.egress

let pp ppf t =
  Format.fprintf ppf "@[<v>fabric: %d ingress / %d egress ports@,ingress: @[%a@]@,egress:  @[%a@]@]"
    (ingress_count t) (egress_count t)
    (Fmt.array ~sep:Fmt.sp Fmt.float)
    t.ingress
    (Fmt.array ~sep:Fmt.sp Fmt.float)
    t.egress
