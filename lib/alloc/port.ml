type t = Ingress of int | Egress of int

let ingress i = Ingress i
let egress e = Egress e

let pp ppf = function
  | Ingress i -> Format.fprintf ppf "ingress:%d" i
  | Egress e -> Format.fprintf ppf "egress:%d" e
