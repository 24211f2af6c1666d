type t = {
  rate : float;
  burst : float;
  mutable level : float;
  mutable last : float;
}

let create ~rate ~burst =
  if rate <= 0. || not (Float.is_finite rate) then
    invalid_arg "Token_bucket.create: rate must be positive and finite";
  if burst <= 0. || not (Float.is_finite burst) then
    invalid_arg "Token_bucket.create: burst must be positive and finite";
  { rate; burst; level = burst; last = neg_infinity }

let refill t ~at =
  if at < t.last then invalid_arg "Token_bucket: time moves backwards";
  if Float.is_finite t.last then t.level <- Float.min t.burst (t.level +. (t.rate *. (at -. t.last)));
  t.last <- at

let try_consume t ~at ~amount =
  if amount < 0. then invalid_arg "Token_bucket: negative amount";
  refill t ~at;
  (* Relative slack: chunk times go through float subtraction, so an
     exactly-funded chunk can come up short by an ulp. *)
  if t.level >= amount -. (1e-9 *. Float.max 1.0 amount) then begin
    t.level <- Float.max 0.0 (t.level -. amount);
    true
  end
  else false
