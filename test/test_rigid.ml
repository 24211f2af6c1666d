open Helpers
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Rigid = Gridbw_core.Rigid
module Types = Gridbw_core.Types
module Summary = Gridbw_metrics.Summary
module Validate = Gridbw_metrics.Validate
module Rng = Gridbw_prng.Rng

let fabric1 () = Fabric.uniform ~ingress_count:1 ~egress_count:1 ~capacity:100.0

let rigid ~id ~bw ~ts ~tf = Request.make_rigid ~id ~ingress:0 ~egress:0 ~bw ~ts ~tf

let ids result = accepted_ids result

let reason_of result id =
  match Types.decision_of result id with
  | Some (Types.Rejected reason) -> reason
  | Some (Types.Accepted _) -> Alcotest.failf "request %d was accepted" id
  | None -> Alcotest.failf "request %d missing" id

(* The paper's motivating failure: FCFS lets one early hog block the port
   while the slot heuristics evict it once cheaper requests show up. *)
let hog_scenario () =
  [
    rigid ~id:0 ~bw:100. ~ts:0. ~tf:100.;
    rigid ~id:1 ~bw:10. ~ts:1. ~tf:2.;
    rigid ~id:2 ~bw:10. ~ts:1. ~tf:2.;
    rigid ~id:3 ~bw:10. ~ts:1. ~tf:2.;
  ]

let fcfs_keeps_the_hog () =
  let result = Rigid.fcfs (fabric1 ()) (hog_scenario ()) in
  Alcotest.(check (list int)) "only the hog" [ 0 ] (ids result);
  Alcotest.(check bool) "reason" true (reason_of result 1 = Types.Port_saturated)

let slots_evict_the_hog () =
  List.iter
    (fun cost ->
      let result = Rigid.slots ~cost (fabric1 ()) (hog_scenario ()) in
      Alcotest.(check (list int))
        (Rigid.cost_name cost ^ " accepts the three small requests")
        [ 1; 2; 3 ] (ids result);
      Alcotest.(check bool) "hog revoked" true (reason_of result 0 = Types.Revoked))
    [ Rigid.Cumulated; Rigid.Min_bw; Rigid.Min_vol ]

let fcfs_tie_smaller_bandwidth_first () =
  let reqs = [ rigid ~id:0 ~bw:80. ~ts:0. ~tf:10.; rigid ~id:1 ~bw:30. ~ts:0. ~tf:10. ] in
  let result = Rigid.fcfs (fabric1 ()) reqs in
  Alcotest.(check (list int)) "smaller bw wins the tie" [ 1 ] (ids result)

let fcfs_accepts_when_capacity_allows () =
  let reqs =
    [ rigid ~id:0 ~bw:40. ~ts:0. ~tf:10.; rigid ~id:1 ~bw:60. ~ts:0. ~tf:10.;
      rigid ~id:2 ~bw:10. ~ts:0. ~tf:10. ]
  in
  let result = Rigid.fcfs (fabric1 ()) reqs in
  (* order by bw: id2 (10), id0 (40), id1 (50): 10+40 = 50, +60 > 100. *)
  Alcotest.(check (list int)) "packs by tie order" [ 0; 2 ] (ids result)

let fcfs_disjoint_windows_independent () =
  let reqs = [ rigid ~id:0 ~bw:100. ~ts:0. ~tf:10.; rigid ~id:1 ~bw:100. ~ts:10. ~tf:20. ] in
  Alcotest.(check (list int)) "both fit" [ 0; 1 ] (ids (Rigid.fcfs (fabric1 ()) reqs))

(* minvol and minbw order by different keys: a short fat request (small
   volume, large bandwidth) versus a long thin one (large volume, small
   bandwidth) that overlap in the fat one's slice. *)
let minvol_vs_minbw () =
  let fat = rigid ~id:0 ~bw:80. ~ts:0. ~tf:2. in
  (* vol 160 *)
  let thin = rigid ~id:1 ~bw:30. ~ts:0. ~tf:10. in
  (* vol 300 *)
  let reqs = [ fat; thin ] in
  let by_vol = Rigid.slots ~cost:Rigid.Min_vol (fabric1 ()) reqs in
  Alcotest.(check (list int)) "min-vol keeps the fat request" [ 0 ] (ids by_vol);
  let by_bw = Rigid.slots ~cost:Rigid.Min_bw (fabric1 ()) reqs in
  Alcotest.(check (list int)) "min-bw keeps the thin request" [ 1 ] (ids by_bw)

(* CUMULATED's priority factor protects a request that already holds earlier
   slices; MINBW happily revokes it for a slightly cheaper newcomer. *)
let cumulated_protects_history () =
  let long = rigid ~id:0 ~bw:60. ~ts:0. ~tf:10. in
  let newcomer = rigid ~id:1 ~bw:50. ~ts:5. ~tf:12. in
  let reqs = [ long; newcomer ] in
  let cumulated = Rigid.slots ~cost:Rigid.Cumulated (fabric1 ()) reqs in
  Alcotest.(check (list int)) "cumulated keeps the long request" [ 0 ] (ids cumulated);
  let by_bw = Rigid.slots ~cost:Rigid.Min_bw (fabric1 ()) reqs in
  Alcotest.(check (list int)) "min-bw revokes it" [ 1 ] (ids by_bw);
  Alcotest.(check bool) "revocation reason" true (reason_of by_bw 0 = Types.Revoked)

let rejected_in_first_slice_is_port_saturated () =
  let reqs = [ rigid ~id:0 ~bw:100. ~ts:0. ~tf:10.; rigid ~id:1 ~bw:100. ~ts:0. ~tf:10. ] in
  let result = Rigid.slots ~cost:Rigid.Min_bw (fabric1 ()) reqs in
  Alcotest.(check int) "one accepted" 1 (List.length result.Types.accepted);
  Alcotest.(check bool) "first-slice rejection reason" true
    (reason_of result 1 = Types.Port_saturated)

let unknown_port_rejected () =
  let bad = Request.make_rigid ~id:0 ~ingress:5 ~egress:0 ~bw:1. ~ts:0. ~tf:1. in
  (match Rigid.fcfs (fabric1 ()) [ bad ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "fcfs accepted unroutable request");
  match Rigid.slots ~cost:Rigid.Cumulated (fabric1 ()) [ bad ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "slots accepted unroutable request"

let all_heuristics =
  [ `Fcfs; `Fifo_blocking; `Slots Rigid.Cumulated; `Slots Rigid.Min_bw; `Slots Rigid.Min_vol ]

let empty_workload () =
  List.iter
    (fun kind ->
      let result = Rigid.run kind (fabric1 ()) [] in
      Alcotest.(check int) "no decisions" 0 (List.length result.Types.accepted))
    all_heuristics

(* Head-of-line blocking: the 100 MB/s hog occupies [0,100]; the blocked
   request at t=1 makes the scheduler wait until t=100, losing the two
   requests behind it even though FCFS would have found room for them. *)
let fifo_blocking_cascade () =
  let reqs =
    [
      rigid ~id:0 ~bw:100. ~ts:0. ~tf:100.;
      rigid ~id:1 ~bw:50. ~ts:1. ~tf:5.;
      (* blocked head: waits till 100 *)
      rigid ~id:2 ~bw:10. ~ts:2. ~tf:3.;
      (* would fit under FCFS? no - port full; but under blocking it is not
         even examined before its start passes *)
      rigid ~id:3 ~bw:10. ~ts:150. ~tf:160.;
      (* after the queue drains: accepted *)
    ]
  in
  let blocking = Rigid.fifo_blocking (fabric1 ()) reqs in
  Alcotest.(check (list int)) "hog + late request" [ 0; 3 ] (ids blocking);
  Alcotest.(check bool) "consistent" true (Types.is_consistent blocking);
  Alcotest.(check bool) "feasible" true
    (Validate.is_valid (fabric1 ()) blocking.Types.accepted)

let fifo_blocking_loses_to_fcfs () =
  (* A workload where FCFS recovers capacity that the blocking queue
     wastes: many small non-overlapping requests behind one blocked head. *)
  let reqs =
    rigid ~id:0 ~bw:80. ~ts:0. ~tf:50.
    :: rigid ~id:1 ~bw:100. ~ts:1. ~tf:6.
       (* blocked head: needs the whole port, waits till t=50 *)
    :: List.init 8 (fun i -> rigid ~id:(2 + i) ~bw:10. ~ts:(float_of_int (10 + i)) ~tf:49.)
  in
  let blocking = List.length (Rigid.fifo_blocking (fabric1 ()) reqs).Types.accepted in
  let fcfs = List.length (Rigid.fcfs (fabric1 ()) reqs).Types.accepted in
  Alcotest.(check int) "blocking keeps only the hog" 1 blocking;
  (* FCFS fits the hog plus two 10 MB/s requests alongside it. *)
  Alcotest.(check int) "fcfs recovers small requests" 3 fcfs

let fifo_blocking_no_contention_is_fcfs () =
  let reqs = [ rigid ~id:0 ~bw:40. ~ts:0. ~tf:10.; rigid ~id:1 ~bw:40. ~ts:2. ~tf:12. ] in
  Alcotest.(check (list int)) "both accepted" [ 0; 1 ]
    (ids (Rigid.fifo_blocking (fabric1 ()) reqs))

let random_rigid_requests seed fabric n =
  let r = Rng.create ~seed () in
  List.init n (fun id ->
      let ingress = Rng.int r (Fabric.ingress_count fabric) in
      let egress = Rng.int r (Fabric.egress_count fabric) in
      let ts = Rng.float_in r 0. 50. in
      let dur = Rng.float_in r 1. 30. in
      let bw = Rng.float_in r 5. 100. in
      Request.make_rigid ~id ~ingress ~egress ~bw ~ts ~tf:(ts +. dur))

let feasible_and_consistent () =
  let fabric = fabric2 () in
  List.iter
    (fun seed ->
      let reqs = random_rigid_requests seed fabric 60 in
      List.iter
        (fun kind ->
          let result = Rigid.run kind fabric reqs in
          let name = Rigid.heuristic_name kind in
          Alcotest.(check bool) (name ^ " consistent") true (Types.is_consistent result);
          Alcotest.(check bool)
            (name ^ " feasible") true
            (Validate.is_valid fabric result.Types.accepted))
        all_heuristics)
    [ 1L; 2L; 3L; 4L; 5L ]

let deterministic () =
  let fabric = fabric2 () in
  let reqs = random_rigid_requests 77L fabric 40 in
  List.iter
    (fun kind ->
      let a = Rigid.run kind fabric reqs and b = Rigid.run kind fabric reqs in
      Alcotest.(check (list int)) (Rigid.heuristic_name kind ^ " deterministic") (ids a) (ids b))
    all_heuristics

(* Two requests may share an id; each keeps its own sweep state.  Under
   every cost the 500 MB/s request takes ingress 0 first, so the first
   id-5 request (600 MB/s on the same port) dies while the second (on
   ports 1) lives.  A state table keyed by id would let the survivor
   revive the loser: 1100 MB/s on a 1000 MB/s port. *)
let slots_keep_repeated_ids_apart () =
  let fabric = Fabric.paper_default () in
  let req ~id ~port ~volume =
    Request.make ~id ~ingress:port ~egress:port ~volume ~ts:0. ~tf:100. ~max_rate:(volume /. 100.)
  in
  let reqs =
    [ req ~id:5 ~port:0 ~volume:60000.; req ~id:5 ~port:1 ~volume:70000.;
      req ~id:1 ~port:0 ~volume:50000. ]
  in
  List.iter
    (fun cost ->
      let result = Rigid.slots ~cost fabric reqs in
      let name = Rigid.cost_name cost in
      Alcotest.(check int) (name ^ " violations") 0
        (List.length (Validate.check fabric result.Types.accepted));
      Alcotest.(check (list (float 0.))) (name ^ " accepted rates") [ 700.; 500. ]
        (List.map (fun (a : Gridbw_alloc.Allocation.t) -> a.bw) result.Types.accepted))
    [ Rigid.Cumulated; Rigid.Min_bw; Rigid.Min_vol ]

(* Equal (cost, id) pairs are ordered by input position, whichever
   request joined the sweep first: the later-starting request listed
   first takes the shared ingress from the one already holding it. *)
let slots_break_full_ties_by_input_order () =
  let fabric = Fabric.uniform ~ingress_count:1 ~egress_count:2 ~capacity:1000. in
  let req ~egress ~ts =
    Request.make ~id:5 ~ingress:0 ~egress ~volume:60000. ~ts ~tf:(ts +. 100.) ~max_rate:600.
  in
  let late = req ~egress:0 ~ts:10. and early = req ~egress:1 ~ts:0. in
  List.iter
    (fun cost ->
      List.iter
        (fun (reqs, winner) ->
          let result = Rigid.slots ~cost fabric reqs in
          Alcotest.(check (list (float 0.)))
            (Rigid.cost_name cost ^ " winner's start")
            [ winner ]
            (List.map
               (fun (a : Gridbw_alloc.Allocation.t) -> a.request.Request.ts)
               result.Types.accepted))
        [ ([ late; early ], 10.); ([ early; late ], 0.) ])
    [ Rigid.Min_bw; Rigid.Min_vol ]

let suites =
  [
    ( "rigid",
      [
        case "fcfs keeps the hog (paper's FIFO failure)" fcfs_keeps_the_hog;
        case "slot heuristics evict the hog" slots_evict_the_hog;
        case "fcfs tie: smaller bandwidth first" fcfs_tie_smaller_bandwidth_first;
        case "fcfs packs within capacity" fcfs_accepts_when_capacity_allows;
        case "fcfs disjoint windows independent" fcfs_disjoint_windows_independent;
        case "min-vol and min-bw order differently" minvol_vs_minbw;
        case "cumulated protects served history" cumulated_protects_history;
        case "first-slice rejection reason" rejected_in_first_slice_is_port_saturated;
        case "unroutable request raises" unknown_port_rejected;
        case "blocking FIFO: head-of-line cascade" fifo_blocking_cascade;
        case "blocking FIFO loses to selective-reject FCFS" fifo_blocking_loses_to_fcfs;
        case "blocking FIFO without contention" fifo_blocking_no_contention_is_fcfs;
        case "empty workload" empty_workload;
        case "random workloads: feasible and consistent" feasible_and_consistent;
        case "determinism" deterministic;
        case "slot heuristics keep repeated ids apart" slots_keep_repeated_ids_apart;
        case "slot heuristics break full ties by input order" slots_break_full_ties_by_input_order;
      ] );
  ]
