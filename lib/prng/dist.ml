let exponential rng ~mean =
  if mean <= 0. then invalid_arg "Dist.exponential: mean must be positive";
  (* Inversion; 1 - u avoids log 0. *)
  let u = Rng.float rng 1.0 in
  -.mean *. log (1.0 -. u)

let normal rng ~mu ~sigma =
  let u1 = 1.0 -. Rng.float rng 1.0 in
  let u2 = Rng.float rng 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

let poisson rng ~mean =
  if mean < 0. then invalid_arg "Dist.poisson: mean must be non-negative";
  if mean = 0. then 0
  else if mean > 30. then
    (* Normal approximation with continuity correction. *)
    let x = normal rng ~mu:mean ~sigma:(sqrt mean) in
    max 0 (int_of_float (Float.round x))
  else
    let limit = exp (-.mean) in
    let rec loop k p =
      let p = p *. Rng.float rng 1.0 in
      if p <= limit then k else loop (k + 1) p
    in
    loop 0 1.0

let pareto rng ~scale ~shape =
  if scale <= 0. || shape <= 0. then invalid_arg "Dist.pareto: parameters must be positive";
  let u = 1.0 -. Rng.float rng 1.0 in
  scale /. (u ** (1.0 /. shape))

let discrete rng weighted =
  let total = Array.fold_left (fun acc (_, w) -> acc +. w) 0.0 weighted in
  if total <= 0. then invalid_arg "Dist.discrete: weights must sum to a positive value";
  let x = Rng.float rng total in
  let n = Array.length weighted in
  let rec scan i acc =
    let v, w = weighted.(i) in
    let acc = acc +. w in
    if x < acc || i = n - 1 then v else scan (i + 1) acc
  in
  scan 0 0.0

let arrival_times rng ~rate ~horizon =
  if rate <= 0. then invalid_arg "Dist.arrival_times: rate must be positive";
  let mean = 1.0 /. rate in
  let rec loop t acc =
    let t = t +. exponential rng ~mean in
    if t >= horizon then List.rev acc else loop t (t :: acc)
  in
  loop 0.0 []
