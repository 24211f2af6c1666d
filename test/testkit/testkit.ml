(* Shared fixtures and qcheck plumbing for the gridbw test suite.

   This used to live in test/helpers.ml; it is a library so the unit
   tests, the property tests, the conformance tests, the fuzzer and the
   examples consume one set of generators instead of re-deriving their
   own slightly-different "random valid request". *)

module Rng = Gridbw_prng.Rng
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Spec = Gridbw_workload.Spec
module Scenario = Gridbw_check.Scenario

let approx ?(eps = 1e-9) a b =
  Float.abs (a -. b) <= eps *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

let check_approx ?(eps = 1e-9) msg expected actual =
  if not (approx ~eps expected actual) then
    Alcotest.failf "%s: expected %.12g, got %.12g" msg expected actual

let rng ?(seed = 42L) () = Rng.create ~seed ()

(* [affix] occurs somewhere in [s]. *)
let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* A small 2-ingress / 2-egress fabric with 100 MB/s ports. *)
let fabric2 () = Fabric.uniform ~ingress_count:2 ~egress_count:2 ~capacity:100.0

let req ?(id = 0) ?(ingress = 0) ?(egress = 0) ?(volume = 100.) ?(ts = 0.) ?(tf = 10.)
    ?max_rate () =
  let max_rate = match max_rate with Some m -> m | None -> volume /. (tf -. ts) in
  Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate

(* Random request valid on [fabric], window within [0, 100] — the
   fuzzer's scenario draw, so the tests and the conformance harness
   explore the same space. *)
let random_request rng fabric id = Scenario.random_request rng fabric ~id ()

let random_requests ?(seed = 7L) ?(n = 40) fabric =
  let r = Rng.create ~seed () in
  List.init n (random_request r fabric)

(* Poisson-style workload from the section 4.3/5.3 generator, used by the
   cross-module property tests and the fault tests. *)
let workload_of_seed ?(n = 40) seed =
  let spec =
    Spec.make ~fabric:(fabric2 ()) ~volumes:(Spec.Uniform_volume { lo = 50.; hi = 3000. })
      ~rate_lo:5. ~rate_hi:100. ~count:n ~mean_interarrival:1.5 ()
  in
  Gridbw_workload.Gen.generate (Rng.create ~seed:(Int64.of_int seed) ()) spec

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* One seed for the whole suite: QCHECK_SEED if set (CI runs the suite
   under two fixed seeds), self-initialized otherwise.  The seed is
   stitched into every property-test name, so any failure line already
   carries the exact reproduction command. *)
let qcheck_seed =
  lazy
    (match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
    | Some s -> s
    | None ->
        Random.self_init ();
        Random.int 1_000_000_000)

let qcase ?(count = 100) name gen prop =
  let seed = Lazy.force qcheck_seed in
  let name = Printf.sprintf "%s [QCHECK_SEED=%d]" name seed in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck2.Test.make ~name ~count gen prop)
