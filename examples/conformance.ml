(* Conformance: generate an adversarial scenario from the fuzzer's
   generator, sweep every shipped scheduler over it, and score each run
   with the reference audit: decision-stream bookkeeping plus the one
   check of Definition 1's constraint set (1), [Validate.check].

     dune exec examples/conformance.exe *)

module Fabric = Gridbw_topology.Fabric
module Scheduler = Gridbw_core.Scheduler
module Types = Gridbw_core.Types
module Spec = Gridbw_workload.Spec
module Scenario = Gridbw_check.Scenario
module Reference = Gridbw_check.Reference
module Harness = Gridbw_check.Harness

let () =
  (* A hotspot-skew scenario: most demand funnels through port 0, the
     regime where feasibility bookkeeping is most likely to crack. *)
  let sc = Scenario.generate ~family:Scenario.Hotspot_skew ~seed:2026L ~size:30 in
  Format.printf "%a@.@." Scenario.pp sc;

  List.iter
    (fun sched ->
      let result = Scheduler.run sched sc.Scenario.fabric sc.Scenario.requests in
      let verdict =
        match Reference.audit sc.Scenario.fabric ~trace:sc.Scenario.requests result with
        | [] -> "conforms"
        | vs -> "VIOLATES: " ^ String.concat "; " (List.map Reference.describe vs)
      in
      Format.printf "%-22s %3d/%d accepted  %s@." (Scheduler.name sched)
        (List.length result.Types.accepted)
        (List.length sc.Scenario.requests)
        verdict)
    (Scheduler.shipped ~step:Harness.default_step ());

  (* The full differential harness adds the metamorphic properties
     (determinism, permutation and scaling invariance, subset
     stability) on top of the oracle checks. *)
  match Harness.check sc with
  | [] -> Format.printf "@.harness: no findings — every engine conforms@."
  | findings ->
      Format.printf "@.harness: %d finding(s)@." (List.length findings);
      List.iter (fun f -> Format.printf "  %a@." Harness.pp_finding f) findings;
      exit 1
