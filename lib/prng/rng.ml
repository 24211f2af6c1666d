(* The four 64-bit words s0..s3 of the xoshiro state, native-endian in
   32 bytes: read and written unboxed, where [mutable int64] record
   fields would box every word a draw writes. *)
type t = Bytes.t

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
  let t = Bytes.create 32 in
  for i = 0 to 3 do
    Bytes.set_int64_ne t (8 * i) (splitmix64 st)
  done;
  (* xoshiro must not start from the all-zero state. *)
  if Bytes.for_all (fun c -> c = '\000') t then Bytes.set_int64_ne t 0 golden;
  t

let create ?(seed = golden) () = of_seed seed

let rotl x k = Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* Inlined into every draw below, so the output word is not boxed on
   its way to an int or a float. *)
let[@inline] next t =
  let s0 = Bytes.get_int64_ne t 0 and s1 = Bytes.get_int64_ne t 8 in
  let s2 = Bytes.get_int64_ne t 16 and s3 = Bytes.get_int64_ne t 24 in
  let result = Int64.mul (rotl (Int64.mul s1 5L) 7) 9L in
  let s2 = Int64.logxor s2 s0 in
  let s3 = Int64.logxor s3 s1 in
  Bytes.set_int64_ne t 0 (Int64.logxor s0 s3);
  Bytes.set_int64_ne t 8 (Int64.logxor s1 s2);
  Bytes.set_int64_ne t 16 (Int64.logxor s2 (Int64.shift_left s1 17));
  Bytes.set_int64_ne t 24 (rotl s3 45);
  result

let int64 t = next t

let split t = of_seed (next t)

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  if n = 1 then 0
  else
    (* Rejection sampling on the top bits to avoid modulo bias. *)
    let mask = Int64.of_int (n - 1) in
    if n land (n - 1) = 0 then Int64.to_int (Int64.logand (next t) mask)
    else
      let bound = Int64.of_int n in
      let rec draw () =
        let v = Int64.shift_right_logical (next t) 1 in
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
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. 0x1p-53

let float t x = unit_float t *. x

let float_in t lo hi =
  if lo > hi then invalid_arg "Rng.float_in: empty range";
  lo +. (unit_float t *. (hi -. lo))

let bool t = Int64.logand (next t) 1L = 1L

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
