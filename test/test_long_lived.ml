open Helpers
module Fabric = Gridbw_topology.Fabric
module Long_lived = Gridbw_core.Long_lived
module Rng = Gridbw_prng.Rng

let fabric2x2 () = Fabric.uniform ~ingress_count:2 ~egress_count:2 ~capacity:100.0
let ll ~id ~ingress ~egress ~bw = Long_lived.request ~id ~ingress ~egress ~bw
let accepted_ids (r : Long_lived.result) = List.map (fun (q : Long_lived.request) -> q.id) r.accepted

let validation () =
  (match Long_lived.request ~id:0 ~ingress:0 ~egress:0 ~bw:0. with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero bw accepted");
  match Long_lived.greedy (fabric2x2 ()) [ ll ~id:0 ~ingress:9 ~egress:0 ~bw:1. ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unroutable request accepted"

let greedy_packs_small_first () =
  let reqs =
    [ ll ~id:0 ~ingress:0 ~egress:0 ~bw:80.; ll ~id:1 ~ingress:0 ~egress:0 ~bw:30. ]
  in
  let r = Long_lived.greedy (fabric2x2 ()) reqs in
  Alcotest.(check (list int)) "smaller first" [ 1 ] (accepted_ids r);
  Alcotest.(check bool) "feasible" true (Long_lived.feasible (fabric2x2 ()) r.Long_lived.accepted)

let uniform_optimal_counts_slots () =
  (* Capacity 100, uniform bw 50: two slots per port side. *)
  let reqs = List.init 6 (fun id -> ll ~id ~ingress:(id mod 2) ~egress:(id mod 2) ~bw:50.) in
  let r = Long_lived.optimal_uniform (fabric2x2 ()) ~bw:50. reqs in
  Alcotest.(check int) "2 slots x 2 disjoint pairs" 4 (List.length r.Long_lived.accepted);
  Alcotest.(check bool) "feasible" true (Long_lived.feasible (fabric2x2 ()) r.Long_lived.accepted)

(* The crossing case where greedy (by id on ties) picks a blocking set but
   max-flow routes around it. *)
let optimal_beats_greedy () =
  let fabric = Fabric.make ~ingress:[| 100.; 100. |] ~egress:[| 100.; 100. |] in
  (* Uniform bw 100: each port carries exactly one request.  Requests:
     (0->0), (0->1), (1->1).  Greedy takes (0->0) first (id order), then
     (0->1) fails (ingress 0 full), (1->1) fits: 2 accepted — actually
     optimal here.  Make it adversarial: (0->1) first would block both.  *)
  let reqs =
    [ ll ~id:0 ~ingress:0 ~egress:1 ~bw:100.; ll ~id:1 ~ingress:0 ~egress:0 ~bw:100.;
      ll ~id:2 ~ingress:1 ~egress:1 ~bw:100. ]
  in
  let greedy = Long_lived.greedy fabric reqs in
  (* Greedy id-order takes 0 (in0->out1), blocking 1 (ingress full) and 2
     (egress 1 full): 1 accepted. *)
  Alcotest.(check (list int)) "greedy traps itself" [ 0 ] (accepted_ids greedy);
  let optimal = Long_lived.optimal_uniform fabric ~bw:100. reqs in
  Alcotest.(check (list int)) "max-flow picks the pair" [ 1; 2 ] (accepted_ids optimal)

let optimal_rejects_nonuniform () =
  match
    Long_lived.optimal_uniform (fabric2x2 ()) ~bw:50.
      [ ll ~id:0 ~ingress:0 ~egress:0 ~bw:60. ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-uniform bandwidth accepted"

let exact_small () =
  let reqs =
    [ ll ~id:0 ~ingress:0 ~egress:0 ~bw:70.; ll ~id:1 ~ingress:0 ~egress:0 ~bw:40.;
      ll ~id:2 ~ingress:0 ~egress:0 ~bw:30.; ll ~id:3 ~ingress:1 ~egress:1 ~bw:90. ]
  in
  let count, ids, optimal = Long_lived.exact (fabric2x2 ()) reqs in
  Alcotest.(check int) "three fit (70+30 on port 0, plus the pair-1 request)" 3 count;
  Alcotest.(check (list int)) "first optimal set found in DFS order" [ 0; 2; 3 ] ids;
  Alcotest.(check bool) "proved" true optimal

let maxflow_matches_exact_on_uniform () =
  let fabric = fabric2x2 () in
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed () in
      let reqs =
        List.init 10 (fun id -> ll ~id ~ingress:(Rng.int rng 2) ~egress:(Rng.int rng 2) ~bw:40.)
      in
      let count, _, proved = Long_lived.exact fabric reqs in
      let optimal = Long_lived.optimal_uniform fabric ~bw:40. reqs in
      Alcotest.(check bool) "exact proved" true proved;
      Alcotest.(check int)
        (Printf.sprintf "seed %Ld: max-flow = branch&bound" seed)
        count
        (List.length optimal.Long_lived.accepted))
    [ 1L; 2L; 3L; 4L; 5L; 6L ]

let greedy_never_beats_optimal_uniform () =
  let fabric = Fabric.paper_default () in
  List.iter
    (fun seed ->
      let rng = Rng.create ~seed () in
      let reqs =
        List.init 120 (fun id -> ll ~id ~ingress:(Rng.int rng 10) ~egress:(Rng.int rng 10) ~bw:300.)
      in
      let greedy = List.length (Long_lived.greedy fabric reqs).Long_lived.accepted in
      let optimal =
        List.length (Long_lived.optimal_uniform fabric ~bw:300. reqs).Long_lived.accepted
      in
      if greedy > optimal then Alcotest.failf "greedy %d beat max-flow %d (seed %Ld)" greedy optimal seed)
    [ 10L; 11L; 12L; 13L ]

let suites =
  [
    ( "long-lived",
      [
        case "validation" validation;
        case "greedy packs small first" greedy_packs_small_first;
        case "uniform optimum counts slots" uniform_optimal_counts_slots;
        case "max-flow beats greedy's trap" optimal_beats_greedy;
        case "optimal rejects non-uniform input" optimal_rejects_nonuniform;
        case "exact branch and bound" exact_small;
        case "max-flow matches exact on uniform instances" maxflow_matches_exact_on_uniform;
        case "greedy never beats the optimum" greedy_never_beats_optimal_uniform;
      ] );
  ]
