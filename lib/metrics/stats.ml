module Welford = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.0; m2 = 0.0; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.mean
  let variance t = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1)
  let stddev t = sqrt (variance t)
  let min t = t.min
  let max t = t.max
end

type aggregate = { n : int; mean : float; stddev : float; ci95 : float; min : float; max : float }

let aggregate samples =
  match samples with
  | [] -> { n = 0; mean = 0.0; stddev = 0.0; ci95 = 0.0; min = 0.0; max = 0.0 }
  | _ ->
      let w = Welford.create () in
      List.iter (Welford.add w) samples;
      let n = Welford.count w in
      let stddev = Welford.stddev w in
      {
        n;
        mean = Welford.mean w;
        stddev;
        ci95 = 1.96 *. stddev /. sqrt (float_of_int n);
        min = Welford.min w;
        max = Welford.max w;
      }
