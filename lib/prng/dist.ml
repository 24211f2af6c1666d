let exponential rng ~mean =
  if mean <= 0. then invalid_arg "Dist.exponential: mean must be positive";
  (* Inversion; 1 - u avoids log 0. *)
  let u = Rng.float rng 1.0 in
  -.mean *. log (1.0 -. u)

let normal rng ~mu ~sigma =
  let u1 = 1.0 -. Rng.float rng 1.0 in
  let u2 = Rng.float rng 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))
