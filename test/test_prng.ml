open Helpers
module Rng = Gridbw_prng.Rng
module Dist = Gridbw_prng.Dist

let stream n rng = List.init n (fun _ -> Rng.int64 rng)

let determinism () =
  let a = Rng.create ~seed:123L () and b = Rng.create ~seed:123L () in
  Alcotest.(check (list int64)) "same seed, same stream" (stream 32 a) (stream 32 b)

let seeds_differ () =
  let a = Rng.create ~seed:1L () and b = Rng.create ~seed:2L () in
  if stream 16 a = stream 16 b then Alcotest.fail "different seeds produced identical streams"

let split_differs () =
  let a = rng () in
  let b = Rng.split a in
  if stream 16 a = stream 16 b then Alcotest.fail "split stream equals parent stream"

(* Known answers: the MD5 of the first 10,000 [Rng.int64] outputs of four
   seeds and of a [split] child, printed in hex one per line.  A change to
   how the state is stored must leave every stream as it is. *)
let known_answers () =
  let digest rng =
    let b = Buffer.create (10_000 * 17) in
    for _ = 1 to 10_000 do
      Printf.bprintf b "%Lx\n" (Rng.int64 rng)
    done;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  List.iter
    (fun (seed, want) ->
      Alcotest.(check string) (Printf.sprintf "seed %Ld" seed) want (digest (Rng.create ~seed ())))
    [
      (0L, "30c67bf2fa5906676ea8d41de80547ea");
      (1L, "df6b8f06a122a4ead2795901d6fee7f6");
      (7L, "6c63b4d69477a850f6ecb8891eb23d17");
      (2006L, "1cf7f82c6ed5b876630195196cc7f108");
    ];
  let parent = Rng.create ~seed:7L () in
  ignore (Rng.int64 parent);
  Alcotest.(check string) "split child of seed 7" "a8fbe62a63761e92596c4fad2d754da9" (digest (Rng.split parent))

let int_bounds () =
  let r = rng () in
  for _ = 1 to 10_000 do
    let n = 1 + Rng.int r 1000 in
    let v = Rng.int r n in
    if v < 0 || v >= n then Alcotest.failf "Rng.int %d out of range: %d" n v
  done

let int_one () = Alcotest.(check int) "int 1 is 0" 0 (Rng.int (rng ()) 1)

let int_rejects_nonpositive () =
  Alcotest.check_raises "int 0" (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int (rng ()) 0))

let int_in_bounds () =
  let r = rng () in
  let seen_lo = ref false and seen_hi = ref false in
  for _ = 1 to 5_000 do
    let v = Rng.int_in r 3 7 in
    if v < 3 || v > 7 then Alcotest.failf "int_in out of range: %d" v;
    if v = 3 then seen_lo := true;
    if v = 7 then seen_hi := true
  done;
  Alcotest.(check bool) "lo reachable" true !seen_lo;
  Alcotest.(check bool) "hi reachable" true !seen_hi

let float_bounds () =
  let r = rng () in
  for _ = 1 to 10_000 do
    let v = Rng.float r 2.5 in
    if v < 0. || v >= 2.5 then Alcotest.failf "float out of range: %f" v
  done

let float_in_empty () =
  Alcotest.check_raises "float_in inverted" (Invalid_argument "Rng.float_in: empty range")
    (fun () -> ignore (Rng.float_in (rng ()) 2. 1.))

let shuffle_permutes () =
  let r = rng () in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "same multiset" (Array.init 50 Fun.id) sorted

let choose_singleton () = Alcotest.(check int) "singleton" 9 (Rng.choose (rng ()) [| 9 |])

let choose_empty () =
  Alcotest.check_raises "empty" (Invalid_argument "Rng.choose: empty array") (fun () ->
      ignore (Rng.choose (rng ()) [||]))

let mean_of f n =
  let r = rng ~seed:11L () in
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. f r
  done;
  !acc /. float_of_int n

let exponential_mean () =
  let m = mean_of (fun r -> Dist.exponential r ~mean:4.0) 40_000 in
  if Float.abs (m -. 4.0) > 0.1 then Alcotest.failf "exponential mean drifted: %f" m

let exponential_positive () =
  let r = rng () in
  for _ = 1 to 1000 do
    if Dist.exponential r ~mean:1.0 < 0. then Alcotest.fail "negative exponential draw"
  done

let exponential_bad_mean () =
  Alcotest.check_raises "mean 0" (Invalid_argument "Dist.exponential: mean must be positive")
    (fun () -> ignore (Dist.exponential (rng ()) ~mean:0.))

let prop_int_in_range =
  qcase "qcheck: Rng.int stays in range"
    QCheck2.Gen.(pair (int_range 1 100000) (int_range 0 1000))
    (fun (bound, salt) ->
      let r = Rng.create ~seed:(Int64.of_int salt) () in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_float_in =
  qcase "qcheck: Rng.float_in stays in range"
    QCheck2.Gen.(triple (float_bound_exclusive 1000.) (float_bound_exclusive 1000.) (int_range 0 1000))
    (fun (a, b, salt) ->
      let lo = Float.min a b and hi = Float.max a b in
      let r = Rng.create ~seed:(Int64.of_int salt) () in
      let v = Rng.float_in r lo hi in
      v >= lo && (v < hi || hi = lo))

let suites =
  [
    ( "prng",
      [
        case "determinism" determinism;
        case "seeds differ" seeds_differ;
        case "split differs" split_differs;
        case "known answers: seeds 0, 1, 7, 2006 and a split child" known_answers;
        case "int bounds" int_bounds;
        case "int 1" int_one;
        case "int rejects non-positive" int_rejects_nonpositive;
        case "int_in inclusive bounds" int_in_bounds;
        case "float bounds" float_bounds;
        case "float_in empty range" float_in_empty;
        case "shuffle permutes" shuffle_permutes;
        case "choose singleton" choose_singleton;
        case "choose empty" choose_empty;
        prop_int_in_range;
        prop_float_in;
      ] );
    ( "dist",
      [
        case "exponential mean" exponential_mean;
        case "exponential positive" exponential_positive;
        case "exponential bad mean" exponential_bad_mean;
      ] );
  ]
