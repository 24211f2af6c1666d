type t = Ingress of int | Egress of int

let ingress i = Ingress i
let egress e = Egress e
let index = function Ingress i | Egress i -> i

let equal a b =
  match (a, b) with
  | Ingress i, Ingress j | Egress i, Egress j -> Int.equal i j
  | Ingress _, Egress _ | Egress _, Ingress _ -> false

let compare a b =
  match (a, b) with
  | Ingress i, Ingress j | Egress i, Egress j -> Int.compare i j
  | Ingress _, Egress _ -> -1
  | Egress _, Ingress _ -> 1

let pp ppf = function
  | Ingress i -> Format.fprintf ppf "ingress:%d" i
  | Egress e -> Format.fprintf ppf "egress:%d" e
