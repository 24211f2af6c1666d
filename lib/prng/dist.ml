let exponential rng ~mean =
  if mean <= 0. then invalid_arg "Dist.exponential: mean must be positive";
  (* Inversion; 1 - u avoids log 0. *)
  let u = Rng.float rng 1.0 in
  -.mean *. log (1.0 -. u)
