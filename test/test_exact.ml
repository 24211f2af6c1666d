open Helpers
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Rigid = Gridbw_core.Rigid
module Exact = Gridbw_core.Exact
module Unit_exact = Gridbw_core.Unit_exact
module Types = Gridbw_core.Types
module Summary = Gridbw_metrics.Summary
module Validate = Gridbw_metrics.Validate
module Rng = Gridbw_prng.Rng

let fabric1 () = Fabric.uniform ~ingress_count:1 ~egress_count:1 ~capacity:100.0
let rigid ~id ~bw ~ts ~tf = Request.make_rigid ~id ~ingress:0 ~egress:0 ~bw ~ts ~tf

let simple_optimum () =
  let reqs =
    [ rigid ~id:0 ~bw:50. ~ts:0. ~tf:10.; rigid ~id:1 ~bw:50. ~ts:0. ~tf:10.;
      rigid ~id:2 ~bw:50. ~ts:0. ~tf:10. ]
  in
  let sol = Exact.max_requests (fabric1 ()) reqs in
  Alcotest.(check int) "two of three" 2 sol.Exact.count;
  Alcotest.(check bool) "optimal" true sol.Exact.optimal

let exact_beats_fcfs () =
  let reqs =
    [ rigid ~id:0 ~bw:100. ~ts:0. ~tf:100.; rigid ~id:1 ~bw:10. ~ts:1. ~tf:2.;
      rigid ~id:2 ~bw:10. ~ts:1. ~tf:2. ]
  in
  let sol = Exact.max_requests (fabric1 ()) reqs in
  Alcotest.(check int) "optimum rejects the hog" 2 sol.Exact.count;
  Alcotest.(check (list int)) "optimal set" [ 1; 2 ] sol.Exact.accepted_ids;
  let fcfs = Rigid.fcfs (fabric1 ()) reqs in
  Alcotest.(check int) "fcfs traps itself" 1 (List.length fcfs.Types.accepted)

let empty_instance () =
  let sol = Exact.max_requests (fabric1 ()) [] in
  Alcotest.(check int) "zero" 0 sol.Exact.count

let dominates_heuristics () =
  let fabric = fabric2 () in
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed () in
      let reqs =
        List.init 14 (fun id ->
            let ingress = Rng.int rng 2 and egress = Rng.int rng 2 in
            let ts = Rng.float_in rng 0. 20. in
            let dur = Rng.float_in rng 1. 15. in
            Request.make_rigid ~id ~ingress ~egress ~bw:(Rng.float_in rng 10. 90.) ~ts
              ~tf:(ts +. dur))
      in
      let optimum = (Exact.max_requests fabric reqs).Exact.count in
      List.iter
        (fun kind ->
          let got = List.length (Rigid.run kind fabric reqs).Types.accepted in
          if got > optimum then
            Alcotest.failf "%s beat the exact optimum (%d > %d, seed %Ld)"
              (Rigid.heuristic_name kind) got optimum seed)
        [ `Fcfs; `Slots Rigid.Cumulated; `Slots Rigid.Min_bw; `Slots Rigid.Min_vol ])
    [ 101L; 102L; 103L; 104L; 105L; 106L ]

let budget_exhaustion_reported () =
  let reqs = List.init 18 (fun id -> rigid ~id ~bw:10. ~ts:0. ~tf:10.) in
  let sol = Exact.max_requests ~node_budget:10 (fabric1 ()) reqs in
  Alcotest.(check bool) "not optimal" false sol.Exact.optimal

let flexible_exact_beats_greedy () =
  (* Greedy at f=1 takes the hog; the offline optimum picks MinRate rates
     that pack both. *)
  let mk id volume max_rate =
    Request.make ~id ~ingress:0 ~egress:0 ~volume ~ts:0. ~tf:10. ~max_rate
  in
  let reqs = [ mk 0 500. 100.; mk 1 500. 100. ] in
  let sol = Exact.max_requests_flexible (fabric1 ()) reqs in
  Alcotest.(check int) "optimum packs both at MinRate" 2 sol.Exact.count;
  Alcotest.(check bool) "proved" true sol.Exact.optimal;
  let greedy_f1 =
    Gridbw_core.Flexible.greedy (fabric1 ()) (Gridbw_core.Policy.Fraction_of_max 1.0) reqs
  in
  Alcotest.(check int) "greedy f=1 takes one" 1 (List.length greedy_f1.Types.accepted)

let flexible_exact_dominates_heuristics () =
  let fabric = fabric2 () in
  List.iter
    (fun seed ->
      let reqs = random_requests ~seed ~n:10 fabric in
      let optimum = (Exact.max_requests_flexible fabric reqs).Exact.count in
      List.iter
        (fun (name, run) ->
          let got = List.length (run reqs).Types.accepted in
          if got > optimum then Alcotest.failf "%s beat the optimum (%Ld)" name seed)
        [
          ("greedy-min", Gridbw_core.Flexible.greedy fabric Gridbw_core.Policy.Min_rate);
          ("greedy-f1", Gridbw_core.Flexible.greedy fabric (Gridbw_core.Policy.Fraction_of_max 1.0));
          ("window-min", Gridbw_core.Flexible.window fabric Gridbw_core.Policy.Min_rate ~step:10.);
        ])
    [ 301L; 302L; 303L; 304L ]

let flexible_exact_levels_validated () =
  match Exact.max_requests_flexible ~levels:[ 1.5 ] (fabric1 ()) [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad level accepted"

(* All three solvers on seeded instances, with and without a binding
   node budget, folded into one digest of count, ids, optimality and
   nodes explored: a change to the search order, the bound or the
   budget accounting moves it. *)
let solutions_pinned () =
  let fabric = fabric2 () in
  let b = Buffer.create 1024 in
  let pin tag (sol : Exact.solution) =
    Printf.bprintf b "%s %d [%s] %b %d\n" tag sol.Exact.count
      (String.concat "," (List.map string_of_int sol.Exact.accepted_ids))
      sol.Exact.optimal sol.Exact.nodes
  in
  List.iter
    (fun seed ->
      let reqs = random_requests ~seed ~n:10 fabric in
      let rigidified =
        List.map
          (fun (r : Request.t) ->
            Request.make_rigid ~id:r.id ~ingress:r.ingress ~egress:r.egress
              ~bw:(Request.min_rate r) ~ts:r.ts ~tf:r.tf)
          reqs
      in
      pin "rigid" (Exact.max_requests fabric rigidified);
      pin "rigid/30" (Exact.max_requests ~node_budget:30 fabric rigidified);
      pin "flexible" (Exact.max_requests_flexible fabric reqs);
      pin "flexible/60" (Exact.max_requests_flexible ~node_budget:60 fabric reqs);
      pin "flexible-f1" (Exact.max_requests_flexible ~levels:[ 1.0 ] fabric reqs);
      let few = List.filteri (fun i _ -> i < 8) reqs in
      pin "malleable" (Exact.max_requests_malleable fabric few);
      pin "malleable/20" (Exact.max_requests_malleable ~node_budget:20 fabric few))
    [ 301L; 302L; 303L; 304L; 305L; 306L ];
  Alcotest.(check string)
    "solutions digest" "8cf828aad3d5ba1162a2ed26efb59152"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

(* --- Unit_exact --- *)

let uinst ?(cap_in = [| 1 |]) ?(cap_out = [| 1 |]) reqs =
  { Unit_exact.caps_in = cap_in; caps_out = cap_out; reqs = Array.of_list reqs }

let ureq id ?(ingress = 0) ?(egress = 0) ts tf = { Unit_exact.id; ingress; egress; ts; tf }

let unit_two_slots () =
  let inst = uinst [ ureq 0 0 2; ureq 1 0 2 ] in
  let sol = Unit_exact.solve inst in
  Alcotest.(check int) "both fit in two slots" 2 sol.Unit_exact.count;
  Alcotest.(check bool) "placements feasible" true
    (Unit_exact.feasible inst sol.Unit_exact.placements)

let unit_three_into_two () =
  let sol = Unit_exact.solve (uinst [ ureq 0 0 2; ureq 1 0 2; ureq 2 0 2 ]) in
  Alcotest.(check int) "capacity bound" 2 sol.Unit_exact.count

let unit_capacity_two () =
  let inst = uinst ~cap_in:[| 2 |] ~cap_out:[| 2 |] [ ureq 0 0 2; ureq 1 0 2; ureq 2 0 2; ureq 3 0 2 ] in
  Alcotest.(check int) "four fit" 4 (Unit_exact.solve inst).Unit_exact.count

let unit_window_respected () =
  let inst = uinst [ ureq 0 1 2 ] in
  let sol = Unit_exact.solve inst in
  Alcotest.(check (list (pair int int))) "forced slot" [ (0, 1) ] sol.Unit_exact.placements

let unit_validate_errors () =
  (match Unit_exact.solve (uinst [ ureq 0 2 2 ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty window accepted");
  match Unit_exact.solve (uinst [ { Unit_exact.id = 0; ingress = 3; egress = 0; ts = 0; tf = 1 } ]) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad port accepted"

let unit_feasible_checker () =
  let inst = uinst [ ureq 0 0 2; ureq 1 0 2 ] in
  Alcotest.(check bool) "good" true (Unit_exact.feasible inst [ (0, 0); (1, 1) ]);
  Alcotest.(check bool) "conflict" false (Unit_exact.feasible inst [ (0, 0); (1, 0) ]);
  Alcotest.(check bool) "outside window" false (Unit_exact.feasible inst [ (0, 2) ]);
  Alcotest.(check bool) "duplicate id" false (Unit_exact.feasible inst [ (0, 0); (0, 1) ]);
  Alcotest.(check bool) "unknown id" false (Unit_exact.feasible inst [ (9, 0) ])

(* The paper notes the single ingress-egress pair case is polynomial: a
   greedy (earliest-deadline-first over slots) is optimal.  Check the exact
   solver agrees with that greedy on random single-pair instances. *)
let edf_greedy inst =
  let reqs = Array.to_list inst.Unit_exact.reqs in
  let sorted =
    List.sort
      (fun (a : Unit_exact.ureq) b ->
        match Int.compare a.tf b.tf with 0 -> Int.compare a.id b.id | c -> c)
      reqs
  in
  let cap = inst.Unit_exact.caps_in.(0) in
  let used = Hashtbl.create 16 in
  List.fold_left
    (fun count (r : Unit_exact.ureq) ->
      let rec find t = if t >= r.tf then None
        else if Option.value ~default:0 (Hashtbl.find_opt used t) < cap then Some t
        else find (t + 1)
      in
      match find r.ts with
      | Some t ->
          Hashtbl.replace used t (1 + Option.value ~default:0 (Hashtbl.find_opt used t));
          count + 1
      | None -> count)
    0 sorted

let single_pair_greedy_is_optimal () =
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed () in
      let reqs =
        List.init 12 (fun id ->
            let ts = Rng.int rng 6 in
            let tf = ts + 1 + Rng.int rng 4 in
            ureq id ts tf)
      in
      let inst = uinst ~cap_in:[| 1 |] ~cap_out:[| 1 |] reqs in
      let exact = (Unit_exact.solve inst).Unit_exact.count in
      let greedy = edf_greedy inst in
      Alcotest.(check int) (Printf.sprintf "seed %Ld" seed) exact greedy)
    [ 1L; 2L; 3L; 4L; 5L; 6L; 7L; 8L ]

let suites =
  [
    ( "exact",
      [
        case "simple optimum" simple_optimum;
        case "optimum rejects the hog fcfs keeps" exact_beats_fcfs;
        case "empty instance" empty_instance;
        slow_case "never beaten by heuristics" dominates_heuristics;
        case "budget exhaustion reported" budget_exhaustion_reported;
        case "flexible optimum packs what greedy f=1 cannot" flexible_exact_beats_greedy;
        slow_case "flexible optimum dominates heuristics" flexible_exact_dominates_heuristics;
        case "flexible levels validated" flexible_exact_levels_validated;
        case "solutions pinned on seeded instances" solutions_pinned;
      ] );
    ( "unit-exact",
      [
        case "two requests, two slots" unit_two_slots;
        case "three into two slots" unit_three_into_two;
        case "capacity two" unit_capacity_two;
        case "window respected" unit_window_respected;
        case "validation errors" unit_validate_errors;
        case "feasibility checker" unit_feasible_checker;
        slow_case "single pair: EDF greedy matches optimum" single_pair_greedy_is_optimal;
      ] );
  ]
