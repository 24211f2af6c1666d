type t = { mutable s0 : int64; mutable s1 : int64; mutable s2 : int64; mutable s3 : int64 }

let golden = 0x9E3779B97F4A7C15L

(* splitmix64 step, used only to expand seeds into full xoshiro states. *)
let splitmix64 state =
  let z = Int64.add !state golden in
  state := z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_seed seed =
  let st = ref seed in
  let s0 = splitmix64 st in
  let s1 = splitmix64 st in
  let s2 = splitmix64 st in
  let s3 = splitmix64 st in
  (* xoshiro must not start from the all-zero state. *)
  if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then { s0 = golden; s1; s2; s3 }
  else { s0; s1; s2; s3 }

let create ?(seed = golden) () = of_seed seed

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let int64 t =
  let result = Int64.mul (rotl (Int64.mul t.s1 5L) 7) 9L in
  let tmp = Int64.shift_left t.s1 17 in
  t.s2 <- Int64.logxor t.s2 t.s0;
  t.s3 <- Int64.logxor t.s3 t.s1;
  t.s1 <- Int64.logxor t.s1 t.s2;
  t.s0 <- Int64.logxor t.s0 t.s3;
  t.s2 <- Int64.logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t = of_seed (int64 t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  if n = 1 then 0
  else
    (* Rejection sampling on the top bits to avoid modulo bias. *)
    let mask = Int64.of_int (n - 1) in
    if n land (n - 1) = 0 then Int64.to_int (Int64.logand (int64 t) mask)
    else
      let bound = Int64.of_int n in
      let rec draw () =
        let v = Int64.shift_right_logical (int64 t) 1 in
        let r = Int64.rem v bound in
        if Int64.sub v r > Int64.sub Int64.max_int (Int64.sub bound 1L) then draw ()
        else Int64.to_int r
      in
      draw ()

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: empty range";
  lo + int t (hi - lo + 1)

(* 53-bit mantissa, uniform on [0,1). *)
let unit_float t =
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits *. 0x1p-53

let float t x = unit_float t *. x

let float_in t lo hi =
  if lo > hi then invalid_arg "Rng.float_in: empty range";
  lo +. (unit_float t *. (hi -. lo))

let bool t = Int64.logand (int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))
