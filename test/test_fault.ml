(* Fault injection and recovery: victim selection, script validation,
   fault-free parity with Flexible, recovery identities, and randomized
   capacity/deadline invariants. *)

open Helpers
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen
module Summary = Gridbw_metrics.Summary
module Resilience = Gridbw_metrics.Resilience
module Flexible = Gridbw_core.Flexible
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Plane = Gridbw_control.Plane
module Rng = Gridbw_prng.Rng
module Fault = Gridbw_fault.Fault
module Victim = Gridbw_fault.Victim
module Injector = Gridbw_fault.Injector

(* seed_gen / workload_of_seed come from Helpers (gridbw_testkit). *)

let zero_latency_config ?(admission = Injector.Greedy) ?(victim = Victim.Smallest_residual) () =
  {
    (Injector.default_config ~admission ()) with
    Injector.control = { (Plane.default_config Policy.Min_rate) with hop_latency = 0.; decision_latency = 0. };
    victim;
    check_invariants = true;
  }

let alloc ~id ~bw ~sigma ~tau ?(tf = tau) () =
  let r =
    Request.make ~id ~ingress:0 ~egress:0 ~volume:(bw *. (tau -. sigma)) ~ts:sigma ~tf
      ~max_rate:bw
  in
  Allocation.make ~request:r ~bw ~sigma

(* --- victim selection --- *)

let test_victim_smallest_residual () =
  let a = alloc ~id:0 ~bw:10. ~sigma:0. ~tau:10. () in
  let b = alloc ~id:1 ~bw:10. ~sigma:0. ~tau:10. () in
  let c = alloc ~id:2 ~bw:10. ~sigma:0. ~tau:10. () in
  let victims =
    Victim.select Victim.Smallest_residual ~need:15. [ (a, 50.); (b, 20.); (c, 90.) ]
  in
  Alcotest.(check (list int))
    "smallest residuals first, stop once need covered" [ 1; 0 ]
    (List.map (fun (v : Allocation.t) -> v.request.Request.id) victims)

let test_victim_latest_deadline () =
  let a = alloc ~id:0 ~bw:10. ~sigma:0. ~tau:10. ~tf:30. () in
  let b = alloc ~id:1 ~bw:10. ~sigma:0. ~tau:10. ~tf:50. () in
  let c = alloc ~id:2 ~bw:10. ~sigma:0. ~tau:10. ~tf:40. () in
  let victims = Victim.select Victim.Latest_deadline ~need:15. [ (a, 1.); (b, 1.); (c, 1.) ] in
  Alcotest.(check (list int))
    "latest deadlines first" [ 1; 2 ]
    (List.map (fun (v : Allocation.t) -> v.request.Request.id) victims)

let test_victim_squeeze_takes_all () =
  let a = alloc ~id:0 ~bw:10. ~sigma:0. ~tau:10. () in
  let b = alloc ~id:1 ~bw:10. ~sigma:0. ~tau:10. () in
  let victims = Victim.select Victim.Proportional_squeeze ~need:1. [ (a, 5.); (b, 5.) ] in
  Alcotest.(check int) "squeeze renegotiates every candidate" 2 (List.length victims)

(* --- script validation --- *)

let test_validate_rejects () =
  let fabric = fabric2 () in
  let bad_port = [ Fault.Degrade { side = Fault.Ingress; port = 9; factor = 0.5; from_ = 0.; until = 1. } ] in
  let bad_factor = [ Fault.Degrade { side = Fault.Ingress; port = 0; factor = 1.5; from_ = 0.; until = 1. } ] in
  let overlap =
    [
      Fault.Degrade { side = Fault.Egress; port = 1; factor = 0.5; from_ = 0.; until = 5. };
      Fault.Degrade { side = Fault.Egress; port = 1; factor = 0.2; from_ = 3.; until = 8. };
    ]
  in
  let raises events =
    match Fault.validate fabric events with
    | () -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "bad port" true (raises bad_port);
  Alcotest.(check bool) "bad factor" true (raises bad_factor);
  Alcotest.(check bool) "overlapping windows" true (raises overlap);
  Fault.validate fabric
    [
      Fault.Degrade { side = Fault.Egress; port = 1; factor = 0.5; from_ = 0.; until = 3. };
      Fault.Degrade { side = Fault.Egress; port = 1; factor = 0.2; from_ = 3.; until = 8. };
    ]

let test_generate_is_valid_and_deterministic () =
  let fabric = fabric2 () in
  let gen seed = Fault.generate (Rng.create ~seed ()) fabric ~horizon:500. Fault.default_spec in
  let a = gen 1L and b = gen 1L in
  Alcotest.(check bool) "same seed, same script" true (a = b);
  Fault.validate fabric a

(* --- fault-free parity --- *)

let ids (l : Allocation.t list) = List.map (fun (a : Allocation.t) -> a.request.Request.id) l

let summary_of fabric (r : Types.result) =
  Summary.compute fabric ~all:r.Types.all ~accepted:r.Types.accepted

let prop_empty_script_greedy_parity =
  qcase ~count:40 "injector: empty script is bit-identical to greedy" seed_gen (fun seed ->
      let fabric = fabric2 () in
      let reqs = workload_of_seed seed in
      let reference = Flexible.greedy fabric Policy.Min_rate reqs in
      let cfg = { (Injector.default_config ()) with Injector.check_invariants = true } in
      let report = Injector.run fabric cfg [] reqs in
      ids reference.Types.accepted = ids report.Injector.result.Types.accepted
      && summary_of fabric reference = summary_of fabric report.Injector.result)

let prop_empty_script_window_parity =
  qcase ~count:40 "injector: empty script is bit-identical to window" seed_gen (fun seed ->
      let fabric = fabric2 () in
      let reqs = workload_of_seed seed in
      let step = 10.0 in
      let reference = Flexible.window ~step fabric (Policy.Fraction_of_max 0.8) reqs in
      let cfg =
        {
          (Injector.default_config ~policy:(Policy.Fraction_of_max 0.8)
             ~admission:(Injector.Window step) ())
          with Injector.check_invariants = true
        }
      in
      let report = Injector.run fabric cfg [] reqs in
      ids reference.Types.accepted = ids report.Injector.result.Types.accepted
      && summary_of fabric reference = summary_of fabric report.Injector.result)

(* --- recovery identities --- *)

let test_scripted_preempt_recovers () =
  (* One transfer, preempted halfway, zero renegotiation latency: the
     residual is re-admitted instantly on an otherwise idle fabric and the
     request still meets its deadline with full delivery. *)
  let fabric = fabric2 () in
  let r = req ~id:0 ~volume:200. ~ts:0. ~tf:10. ~max_rate:50. () in
  let script = [ Fault.Preempt { request_id = 0; at = 2.0 } ] in
  let report = Injector.run fabric (zero_latency_config ()) script [ r ] in
  let o = List.hd report.Injector.outcomes in
  Alcotest.(check bool) "admitted" true o.Resilience.admitted;
  Alcotest.(check int) "one preemption" 1 o.Resilience.preemptions;
  check_approx "full volume delivered" 200. o.Resilience.delivered;
  (match o.Resilience.finished_at with
  | Some f -> Alcotest.(check bool) "finished by deadline" true (f <= 10. +. 1e-9)
  | None -> Alcotest.fail "transfer never finished");
  check_approx "no violation time at zero latency" 0. o.Resilience.violation_time;
  Alcotest.(check int) "recovered count" 1 report.Injector.stats.Resilience.recovered

let test_no_recovery_loses_transfer () =
  let fabric = fabric2 () in
  let r = req ~id:0 ~volume:200. ~ts:0. ~tf:10. ~max_rate:50. () in
  let script = [ Fault.Preempt { request_id = 0; at = 2.0 } ] in
  let cfg = { (zero_latency_config ()) with Injector.recovery = Injector.No_recovery } in
  let report = Injector.run fabric cfg script [ r ] in
  let o = List.hd report.Injector.outcomes in
  Alcotest.(check bool) "never finished" true (o.Resilience.finished_at = None);
  Alcotest.(check bool) "partial delivery only" true (o.Resilience.delivered < 200.);
  Alcotest.(check bool) "violation accrued" true (o.Resilience.violation_time > 0.)

let test_abort_excluded_from_ratios () =
  let fabric = fabric2 () in
  let r = req ~id:0 ~volume:200. ~ts:0. ~tf:10. ~max_rate:50. () in
  let script = [ Fault.Abort { request_id = 0; at = 2.0 } ] in
  let report = Injector.run fabric (zero_latency_config ()) script [ r ] in
  let o = List.hd report.Injector.outcomes in
  Alcotest.(check bool) "aborted" true o.Resilience.aborted;
  check_approx "no violation time for dead hosts" 0. o.Resilience.violation_time;
  check_approx "guarantee ratio ignores aborts" 1. report.Injector.stats.Resilience.guarantee_kept

let test_degrade_sheds_to_capacity () =
  (* Two transfers fill ingress 0; halving it must preempt one, and with
     zero-latency recovery the victim must still finish by its deadline
     (it has slack: max_rate 50 vs min_rate 10). *)
  let fabric = fabric2 () in
  let r0 = req ~id:0 ~ingress:0 ~egress:0 ~volume:500. ~ts:0. ~tf:50. ~max_rate:50. () in
  let r1 = req ~id:1 ~ingress:0 ~egress:1 ~volume:500. ~ts:0. ~tf:50. ~max_rate:50. () in
  let script =
    [ Fault.Degrade { side = Fault.Ingress; port = 0; factor = 0.5; from_ = 2.; until = 4. } ]
  in
  let cfg = { (zero_latency_config ()) with Injector.policy = Policy.Fraction_of_max 1.0 } in
  let report = Injector.run fabric cfg script [ r0; r1 ] in
  Alcotest.(check int) "both admitted" 2 (List.length report.Injector.result.Types.accepted);
  Alcotest.(check int) "someone was preempted" 1 report.Injector.stats.Resilience.preempted;
  List.iter
    (fun (o : Resilience.outcome) ->
      match o.Resilience.finished_at with
      | Some f ->
          Alcotest.(check bool) "finished by deadline" true (f <= o.Resilience.request.Request.tf +. 1e-9)
      | None -> Alcotest.fail "transfer lost despite recovery")
    report.Injector.outcomes

(* --- randomized invariants --- *)

let script_of_seed fabric seed reqs =
  let spec = { Fault.mtbf = 60.; mean_outage = 20.; depth_lo = 0.0; depth_hi = 0.7 } in
  Fault.generate (Rng.create ~seed:(Int64.of_int (seed + 17)) ()) fabric
    ~horizon:(Fault.horizon_of_requests reqs) spec

(* Post-hoc audit (greedy mode): at every instant, the delivered service
   intervals must fit under the fabric's *current* capacity as revised by
   the script.  Shared with the conformance harness. *)
let audit_services fabric script services =
  Gridbw_check.Reference.audit_services ~slack:1e-6 fabric script services = []

let prop_capacity_never_exceeded_greedy =
  qcase ~count:40 "injector: greedy never exceeds revised capacities" seed_gen (fun seed ->
      let fabric = fabric2 () in
      let reqs = workload_of_seed seed in
      let script = script_of_seed fabric seed reqs in
      (* check_invariants asserts the live counters after every event; the
         audit re-derives usage from the delivered service intervals. *)
      let report = Injector.run fabric (zero_latency_config ()) script reqs in
      audit_services fabric script report.Injector.services)

let prop_capacity_never_exceeded_window =
  qcase ~count:25 "injector: window invariant checks pass under faults" seed_gen (fun seed ->
      let fabric = fabric2 () in
      let reqs = workload_of_seed seed in
      let script = script_of_seed fabric seed reqs in
      let cfg = zero_latency_config ~admission:(Injector.Window 10.0) () in
      let report = Injector.run fabric cfg script reqs in
      List.length report.Injector.outcomes = List.length reqs)

let prop_recovered_meet_deadlines =
  qcase ~count:40 "injector: recovered transfers finish by their original deadline"
    QCheck2.Gen.(pair seed_gen (int_range 0 2))
    (fun (seed, vidx) ->
      let fabric = fabric2 () in
      let reqs = workload_of_seed seed in
      let script = script_of_seed fabric seed reqs in
      let victim = List.nth Victim.all vidx in
      let report = Injector.run fabric (zero_latency_config ~victim ()) script reqs in
      List.for_all
        (fun (o : Resilience.outcome) ->
          match o.Resilience.finished_at with
          | Some f ->
              f <= (o.Resilience.request.Request.tf *. (1. +. 1e-9)) +. 1e-9
          | None -> true)
        report.Injector.outcomes)

let prop_preempt_readmit_identity =
  qcase ~count:60 "injector: preempt + zero-latency readmit preserves the guarantee"
    QCheck2.Gen.(pair seed_gen (float_range 0.05 0.95))
    (fun (seed, frac) ->
      let fabric = fabric2 () in
      let r = List.hd (workload_of_seed ~n:1 seed) in
      let at = r.Request.ts +. (frac *. (r.Request.tf -. r.Request.ts)) in
      let script = [ Fault.Preempt { request_id = r.Request.id; at } ] in
      let report = Injector.run fabric (zero_latency_config ()) script [ r ] in
      let o = List.hd report.Injector.outcomes in
      (not o.Resilience.admitted)
      ||
      match o.Resilience.finished_at with
      | Some f ->
          f <= (r.Request.tf *. (1. +. 1e-9)) +. 1e-9
          && approx ~eps:1e-6 o.Resilience.delivered r.Request.volume
      | None -> false)

(* --- both modes, one behaviour --- *)

(* A scripted preemption is traced at the fault's own time, not at the
   last arrival the admission controller saw. *)
let test_preempt_traced_at_fault_time () =
  List.iter
    (fun (name, admission) ->
      let fabric = fabric2 () in
      let r0 = req ~id:0 ~volume:200. ~ts:0. ~tf:10. ~max_rate:50. () in
      let r1 = req ~id:1 ~ingress:1 ~egress:1 ~volume:200. ~ts:1. ~tf:10. ~max_rate:50. () in
      let script = [ Fault.Preempt { request_id = 0; at = 5.0 } ] in
      let buf = Buffer.create 1024 in
      let obs = Gridbw_obs.Obs.create ~sink:(Gridbw_obs.Sink.binary_buffer buf) () in
      ignore
        (Injector.run ~ctx:(Gridbw_core.Runtime.make ~obs ()) fabric
           (zero_latency_config ~admission ()) script [ r0; r1 ]);
      match Gridbw_metrics.Replay.decode (Buffer.contents buf) with
      | Error msg -> Alcotest.failf "%s: trace did not decode: %s" name msg
      | Ok events ->
          let stamps =
            List.filter_map
              (function Gridbw_obs.Event.Preempt { time; id; _ } -> Some (id, time) | _ -> None)
              events
          in
          Alcotest.(check (list (pair int (float 0.))))
            (name ^ ": preempt r0 at 5.0") [ (0, 5.0) ] stamps)
    [ ("greedy", Injector.Greedy); ("window", Injector.Window 0.5) ]

(* Ingress 0 is cut to nothing over [12, 35] under a transfer of 800 MB
   due at 40: it is preempted at 12 and its residual waits out the
   outage.  At the restore 5 s are left, too few at 100 MB/s, so it gives
   up. *)
let outage_outcomes script_tail =
  let r = req ~id:0 ~volume:800. ~ts:0. ~tf:40. ~max_rate:100. () in
  let cut = Fault.Degrade { side = Fault.Ingress; port = 0; factor = 0.; from_ = 12.; until = 35. } in
  List.map
    (fun (name, admission) ->
      let cfg = zero_latency_config ~admission () in
      (name, List.hd (Injector.run (fabric2 ()) cfg (cut :: script_tail) [ r ]).Injector.outcomes))
    [ ("greedy", Injector.Greedy); ("window", Injector.Window 10.) ]

let test_give_up_at_restore_charges_from_preemption () =
  List.iter
    (fun (name, (o : Resilience.outcome)) ->
      Alcotest.(check int) (name ^ ": preempted once") 1 o.Resilience.preemptions;
      check_approx (name ^ ": violation is the outage [12, 40]") 28. o.Resilience.violation_time)
    (outage_outcomes [])

let test_aborted_waiter_accrues_no_violation () =
  List.iter
    (fun (name, (o : Resilience.outcome)) ->
      Alcotest.(check bool) (name ^ ": aborted") true o.Resilience.aborted;
      check_approx (name ^ ": no violation for a dead host") 0. o.Resilience.violation_time)
    (outage_outcomes [ Fault.Abort { request_id = 0; at = 25. } ])

(* --- pinned replay --- *)

(* Both modes replay the same scripts under every recovery and victim
   policy: generated degradations, aborts of a tenth of the hosts and an
   operator preemption of every 7th request.  Each mode folds every run
   into two digests — one of the report (decisions, outcomes, services
   and stats, floats as exact hex) and one of the binary trace — so any
   change to what the replay decides, delivers, charges or traces moves
   a pinned value. *)
let pinned_script fabric seed reqs =
  let aborts =
    Fault.generate_aborts (Rng.create ~seed:(Int64.of_int (seed + 31)) ()) ~fraction:0.1 reqs
  in
  let preempts =
    List.filter_map
      (fun (r : Request.t) ->
        let at = r.Request.ts +. (0.4 *. (r.Request.tf -. r.Request.ts)) in
        if r.Request.id mod 7 = 0 then Some (Fault.Preempt { request_id = r.Request.id; at })
        else None)
      reqs
  in
  script_of_seed fabric seed reqs @ aborts @ preempts

let report_bytes b (rep : Injector.report) =
  let pf fmt = Printf.bprintf b fmt in
  List.iter
    (fun (a : Allocation.t) ->
      pf "A%d %h %h;" a.request.Request.id a.Allocation.bw a.Allocation.sigma)
    rep.Injector.result.Types.accepted;
  List.iter (fun ((r : Request.t), _) -> pf "R%d;" r.Request.id) rep.Injector.result.Types.rejected;
  List.iter
    (fun (o : Resilience.outcome) ->
      pf "O%d %b %b %h %s %d %h;" o.Resilience.request.Request.id o.Resilience.admitted
        o.Resilience.aborted o.Resilience.delivered
        (match o.Resilience.finished_at with Some f -> Printf.sprintf "%h" f | None -> "-")
        o.Resilience.preemptions o.Resilience.violation_time)
    rep.Injector.outcomes;
  List.iter
    (fun (s : Injector.service) ->
      pf "S%d %d %h %h %h;" s.Injector.s_ingress s.Injector.s_egress s.Injector.s_bw
        s.Injector.s_from s.Injector.s_until)
    rep.Injector.services;
  let st = rep.Injector.stats in
  pf "T%d %d %d %d %d %h %h %h %h %h\n" st.Resilience.total st.Resilience.admitted
    st.Resilience.preempted st.Resilience.aborted st.Resilience.recovered
    st.Resilience.recovered_fraction st.Resilience.guarantee_kept st.Resilience.violation_minutes
    st.Resilience.goodput st.Resilience.delivered_fraction

let pinned_digests admission =
  let report = Buffer.create 65536 and trace = Buffer.create 65536 in
  for seed = 0 to 19 do
    let fabric = fabric2 () in
    let reqs = workload_of_seed seed in
    let script = pinned_script fabric seed reqs in
    List.iter
      (fun recovery ->
        List.iter
          (fun victim ->
            let cfg =
              {
                (Injector.default_config ~admission ()) with
                Injector.recovery;
                victim;
                check_invariants = true;
              }
            in
            let obs = Gridbw_obs.Obs.create ~sink:(Gridbw_obs.Sink.binary_buffer trace) () in
            let rep = Injector.run ~ctx:(Gridbw_core.Runtime.make ~obs ()) fabric cfg script reqs in
            report_bytes report rep)
          Victim.all)
      [ Injector.Resubmit; Injector.No_recovery ]
  done;
  (Digest.to_hex (Digest.string (Buffer.contents report)),
   Digest.to_hex (Digest.string (Buffer.contents trace)))

let test_pinned_replay admission ~report ~trace () =
  let r, t = pinned_digests admission in
  Alcotest.(check string) "report digest" report r;
  Alcotest.(check string) "trace digest" trace t

let suites =
  [
    ( "fault",
      [
        case "victim: smallest-residual order" test_victim_smallest_residual;
        case "victim: latest-deadline order" test_victim_latest_deadline;
        case "victim: proportional squeeze takes all" test_victim_squeeze_takes_all;
        case "fault: validate rejects bad scripts" test_validate_rejects;
        case "fault: generate is valid and deterministic" test_generate_is_valid_and_deterministic;
        case "injector: scripted preempt recovers" test_scripted_preempt_recovers;
        case "injector: no-recovery loses the transfer" test_no_recovery_loses_transfer;
        case "injector: aborts excluded from ratios" test_abort_excluded_from_ratios;
        case "injector: degrade sheds to capacity" test_degrade_sheds_to_capacity;
        prop_empty_script_greedy_parity;
        prop_empty_script_window_parity;
        prop_capacity_never_exceeded_greedy;
        prop_capacity_never_exceeded_window;
        prop_recovered_meet_deadlines;
        prop_preempt_readmit_identity;
        case "injector: a scripted preemption is traced at its own time"
          test_preempt_traced_at_fault_time;
        case "injector: a give-up at a restore is charged from the preemption"
          test_give_up_at_restore_charges_from_preemption;
        case "injector: an aborted waiter accrues no violation"
          test_aborted_waiter_accrues_no_violation;
        case "injector: pinned greedy replay"
          (test_pinned_replay Injector.Greedy ~report:"54e98970b791e5ab002b58c92812bce6"
             ~trace:"007199252546e620f284fc60cf097e68");
        case "injector: pinned window replay"
          (test_pinned_replay (Injector.Window 10.) ~report:"b4490967e9781c566506e8debbd3cae8"
             ~trace:"7e3406107d8f6772e3fd0bb47bf67005");
      ] );
  ]
