(* Quickstart: build a fabric, submit a handful of transfer requests, run
   the paper's WINDOW heuristic and inspect every decision.

     dune exec examples/quickstart.exe *)

module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Flexible = Gridbw_core.Flexible
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Summary = Gridbw_metrics.Summary

let () =
  (* Two sites pushing data through a 2-ingress / 2-egress overlay with
     100 MB/s access points. *)
  let fabric = Fabric.uniform ~ingress_count:2 ~egress_count:2 ~capacity:100.0 in
  Format.printf "%a@.@." Fabric.pp fabric;

  (* Five bulk transfers: volume (MB), transmission window, host cap. *)
  let request id ingress egress volume ts tf max_rate =
    Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate
  in
  let requests =
    [
      request 0 0 0 3000. 0. 60. 100.;  (* big archive push, roomy window *)
      request 1 0 1 1200. 5. 30. 80.;   (* results upload *)
      request 2 1 0 600. 8. 20. 60.;    (* dataset fetch *)
      request 3 1 1 4000. 10. 50. 100.; (* checkpoint sync *)
      request 4 0 0 2500. 12. 40. 90.;  (* competing archive push *)
    ]
  in

  (* Admit with Algorithm 3 (10 s batching) granting 80% of each host cap. *)
  let result = Flexible.window fabric (Policy.Fraction_of_max 0.8) ~step:10. requests in

  List.iter
    (fun (r : Request.t) ->
      match Types.decision_of result r.id with
      | Some (Types.Accepted a) ->
          Format.printf "request %d: ACCEPTED  %.0f MB at %.1f MB/s on [%.0f, %.1f]@." r.id
            r.volume a.Allocation.bw a.Allocation.sigma a.Allocation.tau
      | Some (Types.Rejected reason) ->
          Format.printf "request %d: rejected (%a)@." r.id Types.pp_reason reason
      | None -> assert false)
    requests;

  let summary = Summary.compute fabric ~all:requests ~accepted:result.Types.accepted in
  Format.printf "@.%a@." Summary.pp summary;
  assert (Gridbw_metrics.Validate.is_valid fabric result.Types.accepted)
