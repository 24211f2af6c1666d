(* Cross-module property tests: invariants that tie the libraries together
   on randomised inputs. *)

open Helpers
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Profile_ref = Gridbw_alloc.Profile_ref
module Trace = Gridbw_workload.Trace
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen
module Summary = Gridbw_metrics.Summary
module Validate = Gridbw_metrics.Validate
module Rigid = Gridbw_core.Rigid
module Flexible = Gridbw_core.Flexible
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Maxmin = Gridbw_baseline.Maxmin
module Rng = Gridbw_prng.Rng

(* seed_gen / workload_of_seed come from Helpers (gridbw_testkit). *)

let prop_trace_roundtrip =
  qcase ~count:50 "trace: random workloads round-trip exactly" seed_gen (fun seed ->
      let reqs = workload_of_seed seed in
      let back = Trace.of_string (Trace.to_string reqs) in
      List.length back = List.length reqs
      && List.for_all2
           (fun (a : Request.t) (b : Request.t) ->
             a.id = b.id && a.ingress = b.ingress && a.egress = b.egress && a.volume = b.volume
             && a.ts = b.ts && a.tf = b.tf && a.max_rate = b.max_rate)
           reqs back)

let prop_profile_max_dominates_point =
  qcase ~count:100 "profile: max_over dominates usage_at interior points"
    QCheck2.Gen.(pair seed_gen (int_range 2 20))
    (fun (seed, n) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let p =
        List.fold_left
          (fun p _ ->
            let from_ = Rng.float_in rng 0. 50. in
            Profile_ref.add p ~from_ ~until:(from_ +. Rng.float_in rng 0.5 10.) (Rng.float_in rng 1. 20.))
          Profile_ref.empty (List.init n Fun.id)
      in
      let probe = Rng.float_in rng 0. 60. in
      Profile_ref.max_over p ~from_:probe ~until:(probe +. 5.)
      >= Profile_ref.usage_at p probe -. 1e-9)

let prop_scaled_utilization_dominates_raw =
  qcase ~count:30 "summary: B_scaled utilization >= raw utilization" seed_gen (fun seed ->
      let reqs = workload_of_seed seed in
      let result = Flexible.greedy (fabric2 ()) Policy.Min_rate reqs in
      let s = Summary.compute (fabric2 ()) ~all:reqs ~accepted:result.Types.accepted in
      s.Summary.utilization >= s.Summary.raw_utilization -. 1e-9)

let prop_policy_monotone_in_f =
  qcase ~count:100 "policy: granted rate is monotone in f"
    QCheck2.Gen.(triple seed_gen (float_range 0.0 1.0) (float_range 0.0 1.0))
    (fun (seed, f1, f2) ->
      let lo = Float.min f1 f2 and hi = Float.max f1 f2 in
      let r = List.hd (workload_of_seed ~n:1 seed) in
      match
        ( Policy.assign (Policy.Fraction_of_max lo) r ~now:r.Request.ts,
          Policy.assign (Policy.Fraction_of_max hi) r ~now:r.Request.ts )
      with
      | Some a, Some b -> b >= a -. 1e-9
      | None, None -> true
      | _ -> false)

let prop_policy_within_bounds =
  qcase ~count:100 "policy: granted rate within [MinRate, MaxRate]"
    QCheck2.Gen.(pair seed_gen (float_range 0.0 1.0))
    (fun (seed, f) ->
      let r = List.hd (workload_of_seed ~n:1 seed) in
      match Policy.assign (Policy.Fraction_of_max f) r ~now:r.Request.ts with
      | Some bw ->
          bw >= Request.min_rate r *. (1. -. 1e-9) && bw <= r.Request.max_rate *. (1. +. 1e-9)
      | None -> false)

let all_kinds_feasible name run =
  qcase ~count:25 name seed_gen (fun seed ->
      let reqs = workload_of_seed seed in
      let result = run reqs in
      Types.is_consistent result && Validate.is_valid (fabric2 ()) result.Types.accepted)

let prop_greedy_feasible =
  all_kinds_feasible "greedy: consistent and feasible on random workloads" (fun reqs ->
      Flexible.greedy (fabric2 ()) (Policy.Fraction_of_max 0.7) reqs)

let prop_window_feasible =
  all_kinds_feasible "window: consistent and feasible on random workloads" (fun reqs ->
      Flexible.window (fabric2 ()) (Policy.Fraction_of_max 0.7) ~step:13. reqs)

let prop_deferred_feasible =
  all_kinds_feasible "window-deferred: consistent and feasible on random workloads" (fun reqs ->
      Flexible.window_deferred (fabric2 ()) Policy.Min_rate ~step:13. reqs)

let rigidify reqs =
  List.map
    (fun (r : Request.t) ->
      Request.make_rigid ~id:r.id ~ingress:r.ingress ~egress:r.egress ~bw:(Request.min_rate r)
        ~ts:r.ts ~tf:r.tf)
    reqs

let prop_slots_feasible =
  qcase ~count:25 "slot heuristics: consistent and feasible on random workloads" seed_gen
    (fun seed ->
      let reqs = rigidify (workload_of_seed seed) in
      List.for_all
        (fun cost ->
          let result = Rigid.slots ~cost (fabric2 ()) reqs in
          Types.is_consistent result && Validate.is_valid (fabric2 ()) result.Types.accepted)
        [ Rigid.Cumulated; Rigid.Min_bw; Rigid.Min_vol ])

let prop_accepted_meet_deadlines =
  qcase ~count:25 "every heuristic: accepted transfers finish in-window" seed_gen (fun seed ->
      let reqs = workload_of_seed seed in
      List.for_all
        (fun kind ->
          let result = Flexible.run kind (fabric2 ()) (Policy.Fraction_of_max 0.9) reqs in
          List.for_all Allocation.meets_deadline result.Types.accepted)
        [ `Greedy; `Window 9.0; `Window_deferred 9.0 ])

let prop_maxmin_flow_total_bounded =
  qcase ~count:50 "maxmin: aggregate rate bounded by either side's capacity" seed_gen
    (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let caps_in = Array.init 3 (fun _ -> Rng.float_in rng 10. 100.) in
      let caps_out = Array.init 3 (fun _ -> Rng.float_in rng 10. 100.) in
      let flows =
        Array.init (1 + Rng.int rng 30) (fun _ ->
            { Maxmin.ingress = Rng.int rng 3; egress = Rng.int rng 3;
              max_rate = Rng.float_in rng 1. 60. })
      in
      let rates = Maxmin.rates ~caps_in ~caps_out flows in
      let total = Array.fold_left ( +. ) 0.0 rates in
      let bound side = Array.fold_left ( +. ) 0.0 side in
      total <= Float.min (bound caps_in) (bound caps_out) *. (1. +. 1e-6))

let prop_maxmin_adding_flow_never_raises_others =
  qcase ~count:40 "maxmin: adding a flow never raises an existing rate" seed_gen (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let caps_in = [| Rng.float_in rng 20. 100. |] in
      let caps_out = [| Rng.float_in rng 20. 100. |] in
      let flow () = { Maxmin.ingress = 0; egress = 0; max_rate = Rng.float_in rng 1. 80. } in
      let n = 1 + Rng.int rng 10 in
      let flows = Array.init n (fun _ -> flow ()) in
      let before = Maxmin.rates ~caps_in ~caps_out flows in
      let flows' = Array.append flows [| flow () |] in
      let after = Maxmin.rates ~caps_in ~caps_out flows' in
      let ok = ref true in
      for i = 0 to n - 1 do
        if after.(i) > before.(i) +. 1e-6 then ok := false
      done;
      !ok)

let prop_exact_dominates_on_unit_instances =
  qcase ~count:20 "unit-exact: count bounded by capacity-time volume" seed_gen (fun seed ->
      let rng = Rng.create ~seed:(Int64.of_int seed) () in
      let reqs =
        Array.init (3 + Rng.int rng 8) (fun id ->
            let ts = Rng.int rng 4 in
            { Gridbw_core.Unit_exact.id; ingress = Rng.int rng 2; egress = Rng.int rng 2;
              ts; tf = ts + 1 + Rng.int rng 3 })
      in
      let inst =
        { Gridbw_core.Unit_exact.caps_in = [| 1; 2 |]; caps_out = [| 2; 1 |]; reqs }
      in
      let sol = Gridbw_core.Unit_exact.solve inst in
      (* 7 time steps max (ts in 0..3, tf up to 7), ingress volume 3/step. *)
      sol.Gridbw_core.Unit_exact.count <= Array.length reqs
      && sol.Gridbw_core.Unit_exact.count <= 7 * 3
      && Gridbw_core.Unit_exact.feasible inst sol.Gridbw_core.Unit_exact.placements)

let suites =
  [
    ( "cross-module properties",
      [
        prop_trace_roundtrip;
        prop_profile_max_dominates_point;
        prop_scaled_utilization_dominates_raw;
        prop_policy_monotone_in_f;
        prop_policy_within_bounds;
        prop_greedy_feasible;
        prop_window_feasible;
        prop_deferred_feasible;
        prop_slots_feasible;
        prop_accepted_meet_deadlines;
        prop_maxmin_flow_total_bounded;
        prop_maxmin_adding_flow_never_raises_others;
        prop_exact_dominates_on_unit_instances;
      ] );
  ]
