module Rng = Gridbw_prng.Rng
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Spec = Gridbw_workload.Spec
module Types = Gridbw_core.Types
module Scheduler = Gridbw_core.Scheduler
module Policy = Gridbw_core.Policy
module Long_lived = Gridbw_core.Long_lived
module Validate = Gridbw_metrics.Validate
module Injector = Gridbw_fault.Injector
module Fault = Gridbw_fault.Fault
module Online = Gridbw_core.Online
module Port = Gridbw_alloc.Port
module Shard_engine = Gridbw_shard.Engine
module Malleable = Gridbw_malleable.Malleable

type finding = { engine : string; check : string; detail : string }

let pp_finding ppf f = Format.fprintf ppf "[%s] %s: %s" f.engine f.check f.detail
let default_step = 11.0

(* A run's decision stream, order-independent: accepted (id, bw, sigma,
   tau) and rejected (id, reason), both sorted.  Two conforming runs are
   compared on exact float equality — the metamorphic properties below
   hold exactly, not approximately. *)
let alloc_sig (a : Allocation.t) =
  (a.Allocation.request.Request.id, a.Allocation.bw, a.Allocation.sigma, a.Allocation.tau)

let signature (r : Types.result) =
  ( List.sort compare (List.map alloc_sig r.Types.accepted),
    List.sort compare
      (List.map
         (fun ((req : Request.t), reason) ->
           (req.Request.id, Types.reason_name reason))
         r.Types.rejected) )

let is_faulty name = String.starts_with ~prefix:"faulty-" name

let subset_applicable name =
  name = "fcfs"
  || String.starts_with ~prefix:"greedy" name
  || String.starts_with ~prefix:"window(" name
  || String.starts_with ~prefix:"window-deferred(" name

let join_ref vs = String.concat "; " (List.map Reference.describe vs)
let join_validate vs = String.concat "; " (List.map Validate.describe vs)

let permuted (sc : Scenario.t) =
  let arr = Array.of_list sc.Scenario.requests in
  let rng = Rng.create ~seed:(Int64.add sc.Scenario.seed 77L) () in
  Rng.shuffle rng arr;
  Array.to_list arr

(* Oracle checks and the engine-local metamorphic properties (M1–M4,
   selected by engine) for one scheduler on one scenario. *)
let check_scheduler (sc : Scenario.t) sched =
  let name = Scheduler.name sched in
  let findings = ref [] in
  let fail check detail = findings := { engine = name; check; detail } :: !findings in
  let result = Scheduler.run sched sc.Scenario.fabric sc.Scenario.requests in
  let base_sig = signature result in
  if not (Types.is_consistent result) then
    fail "consistent" "accepted/rejected do not partition the input";
  (* Oracle checks.  A fault engine's initial admissions are not statically
     checkable once shedding has recycled reservations; its deep audit
     lives in [check_faulted]. *)
  if not (is_faulty name && sc.Scenario.faults <> []) then begin
    match Reference.audit sc.Scenario.fabric ~trace:sc.Scenario.requests result with
    | [] -> ()
    | vs -> fail "reference" (join_ref vs)
  end;
  (* M1: determinism. *)
  if signature (Scheduler.run sched sc.Scenario.fabric sc.Scenario.requests) <> base_sig then
    fail "deterministic" "two runs on identical input disagreed";
  (* M2: permutation invariance (every engine sorts into arrival order
     with total tie-breaking). *)
  if signature (Scheduler.run sched sc.Scenario.fabric (permuted sc)) <> base_sig then
    fail "permutation-invariant" "decisions changed under an input shuffle";
  (* M3: exact ×2 scaling. *)
  if not (is_faulty name) then begin
    let scaled = Scenario.scale2 sc in
    let scaled_sig = signature (Scheduler.run sched scaled.Scenario.fabric scaled.Scenario.requests) in
    let expected =
      (List.map (fun (id, bw, s, t) -> (id, 2. *. bw, s, t)) (fst base_sig), snd base_sig)
    in
    if scaled_sig <> expected then
      fail "scale2-invariant" "doubling capacities and volumes changed the decisions"
  end;
  (* M4: accepted-subset stability. *)
  if subset_applicable name then begin
    let accepted_ids =
      List.fold_left
        (fun s (a : Allocation.t) -> a.Allocation.request.Request.id :: s)
        [] result.Types.accepted
    in
    let subset =
      List.filter (fun (r : Request.t) -> List.mem r.Request.id accepted_ids) sc.Scenario.requests
    in
    let again = Scheduler.run sched sc.Scenario.fabric subset in
    if fst (signature again) <> fst base_sig || again.Types.rejected <> [] then
      fail "accepted-subset-stable"
        "re-running on only the accepted requests changed the allocations"
  end;
  List.rev !findings

(* --- fault-run checks --- *)

let injector_cfg admission = Injector.default_config ~admission ()

(* Service-level capacity audit under revisions, per-request window and
   rate constraints on initial admissions, outcome bookkeeping. *)
let check_faulted (sc : Scenario.t) =
  if sc.Scenario.faults = [] then []
  else
    List.concat_map
      (fun admission ->
        let name = "faulty-" ^ Injector.admission_name admission in
        let findings = ref [] in
        let fail check detail = findings := { engine = name; check; detail } :: !findings in
        let report = Injector.run sc.Scenario.fabric (injector_cfg admission) sc.Scenario.faults sc.Scenario.requests in
        (* The service-capacity audit only applies to GREEDY mode: WINDOW
           inherits Flexible.window's retroactive booking, where a batch
           boundary books transfers over already-elapsed intervals against
           the fabric as of the boundary — so its recorded services can
           legitimately overlap a past degradation. *)
        (match admission with
        | Injector.Window _ -> ()
        | Injector.Greedy -> (
            match
              Reference.audit_services sc.Scenario.fabric sc.Scenario.faults report.Injector.services
            with
            | [] -> ()
            | vs -> fail "service-capacity" (join_validate vs)));
        if List.length report.Injector.outcomes <> List.length sc.Scenario.requests then
          fail "outcomes"
            (Printf.sprintf "%d outcomes for %d requests"
               (List.length report.Injector.outcomes)
               (List.length sc.Scenario.requests));
        let per_request =
          Validate.check sc.Scenario.fabric report.Injector.result.Types.accepted
          |> List.filter (function Validate.Port_overload _ -> false | _ -> true)
        in
        if per_request <> [] then fail "admission-constraints" (join_validate per_request);
        List.rev !findings)
      [ Injector.Greedy; Injector.Window default_step ]

(* M5: empty-script injector runs against their fault-free twins. *)
let check_parity (sc : Scenario.t) =
  List.concat_map
    (fun (admission, twin) ->
      let inj = Injector.scheduler (injector_cfg admission) [] in
      let a = Scheduler.run inj sc.Scenario.fabric sc.Scenario.requests in
      let b = Scheduler.run twin sc.Scenario.fabric sc.Scenario.requests in
      if signature a <> signature b then
        [ { engine = Scheduler.name inj;
            check = "empty-script-parity";
            detail = "decision stream differs from " ^ Scheduler.name twin } ]
      else [])
    [ (Injector.Greedy, Scheduler.of_flexible `Greedy Policy.Min_rate);
      (Injector.Window default_step, Scheduler.of_flexible (`Window default_step) Policy.Min_rate) ]

(* --- sharded-engine differential --- *)

let sharded_counts = [ 2; 3 ]
let sharded_policy = Policy.Min_rate

type shard_op = Op_admit of Request.t | Op_cancel of { id : int; at : float }

(* One sequential timeline of arrivals and preempts, ordered by time with
   total tie-breaking; driving the sharded engine and the single-shard
   ledger through it op for op keeps their clocks in lockstep, so every
   decision is comparable bit for bit. *)
let shard_timeline (sc : Scenario.t) =
  let key = function
    | Op_admit r -> (r.Request.ts, 0, r.Request.id)
    | Op_cancel { id; at } -> (at, 1, id)
  in
  let admits = List.map (fun r -> Op_admit r) sc.Scenario.requests in
  let cancels =
    List.filter_map
      (function
        | Fault.Preempt { request_id; at } -> Some (Op_cancel { id = request_id; at })
        | Fault.Degrade _ | Fault.Abort _ -> None)
      sc.Scenario.faults
  in
  List.sort (fun a b -> compare (key a) (key b)) (admits @ cancels)

let describe_decision = function
  | Types.Accepted (a : Allocation.t) ->
      Printf.sprintf "accept bw=%.17g sigma=%.17g tau=%.17g" a.Allocation.bw a.Allocation.sigma
        a.Allocation.tau
  | Types.Rejected reason -> Format.asprintf "reject (%a)" Types.pp_reason reason

let same_decision a b =
  match (a, b) with
  | Types.Accepted (x : Allocation.t), Types.Accepted y ->
      x.Allocation.bw = y.Allocation.bw && x.Allocation.sigma = y.Allocation.sigma
      && x.Allocation.tau = y.Allocation.tau
  | Types.Rejected x, Types.Rejected y -> x = y
  | _ -> false

(* Differential replay against the sharded engine ([spawn:false], 2 and
   3 shards) and a single-shard [Online] ledger, op for op: every
   decision, cancel outcome, settled port counter and the active-transfer
   count must agree bit for bit. *)
let check_sharded (sc : Scenario.t) =
  (* Degrades and injector aborts revise capacities mid-flight — the
     sharded engine has no such verb, so only preempt-only (or fault-free)
     scenarios are differentially replayable against it. *)
  if not (List.for_all (function Fault.Preempt _ -> true | _ -> false) sc.Scenario.faults)
  then []
  else
    let timeline = shard_timeline sc in
    List.concat_map
      (fun shards ->
        let name = Printf.sprintf "sharded(%d)" shards in
        let findings = ref [] in
        let fail check detail = findings := { engine = name; check; detail } :: !findings in
        let engine = Shard_engine.create ~spawn:false ~shards sharded_policy sc.Scenario.fabric in
        let online = Online.create sc.Scenario.fabric in
        let lbooked = Hashtbl.create 64 and sbooked = Hashtbl.create 64 in
        List.iteri
          (fun i op ->
            match op with
            | Op_admit r ->
                let at = Float.max (Online.now online) r.Request.ts in
                let expected = Online.try_admit online sharded_policy r ~at in
                let actual = Shard_engine.try_admit engine r in
                if not (same_decision expected actual) then
                  fail "decision-parity"
                    (Printf.sprintf "op %d (request %d): ledger %s, sharded %s" i r.Request.id
                       (describe_decision expected) (describe_decision actual));
                (match expected with
                | Types.Accepted a -> Hashtbl.replace lbooked r.Request.id a
                | Types.Rejected _ -> ());
                (match actual with
                | Types.Accepted a -> Hashtbl.replace sbooked r.Request.id a
                | Types.Rejected _ -> ())
            | Op_cancel { id; _ } -> (
                (* each side cancels its own allocation record, so a prior
                   decision mismatch cannot cascade into a bogus one here *)
                match (Hashtbl.find_opt lbooked id, Hashtbl.find_opt sbooked id) with
                | None, None -> ()
                | Some la, Some sa ->
                    let expected = Online.preempt online la in
                    let actual = Shard_engine.cancel engine sa in
                    if expected then Hashtbl.remove lbooked id;
                    if actual then Hashtbl.remove sbooked id;
                    if expected <> actual then
                      fail "cancel-parity"
                        (Printf.sprintf "op %d: cancel of %d %s on the ledger but %s sharded" i id
                           (if expected then "succeeded" else "failed")
                           (if actual then "succeeded" else "failed"))
                | _ -> ()))
          timeline;
        (* bring both sides to the same global instant before reading
           counters: shards no late operation touched still hold releases
           the ledger drained at its last admission *)
        Shard_engine.settle engine;
        Online.advance_to online (Shard_engine.now engine);
        for i = 0 to Fabric.ingress_count sc.Scenario.fabric - 1 do
          let s = Shard_engine.ingress_used engine i and l = Online.used online (Port.ingress i) in
          if s <> l then
            fail "counter-parity" (Printf.sprintf "ingress %d: sharded %.17g <> ledger %.17g" i s l)
        done;
        for e = 0 to Fabric.egress_count sc.Scenario.fabric - 1 do
          let s = Shard_engine.egress_used engine e and l = Online.used online (Port.egress e) in
          if s <> l then
            fail "counter-parity" (Printf.sprintf "egress %d: sharded %.17g <> ledger %.17g" e s l)
        done;
        if Shard_engine.active_count engine <> Online.active_count online then
          fail "active-parity"
            (Printf.sprintf "%d active transfers sharded, %d on the ledger"
               (Shard_engine.active_count engine) (Online.active_count online));
        Shard_engine.stop engine;
        List.rev !findings)
      sharded_counts

(* --- long-lived solvers --- *)

(* Greedy feasibility, [optimal_uniform] dominance over greedy on uniform
   instances, and branch-and-bound agreement on tiny instances. *)
let check_long_lived ~seed ~size =
  let rng = Rng.create ~seed () in
  let fabric = Fabric.uniform ~ingress_count:2 ~egress_count:2 ~capacity:100.0 in
  let findings = ref [] in
  let fail check detail = findings := { engine = "long-lived"; check; detail } :: !findings in
  let n = max 1 (min size 20) in
  let flow ~id bw =
    Long_lived.request ~id ~ingress:(Rng.int rng 2) ~egress:(Rng.int rng 2) ~bw
  in
  (* Uniform instance: the polynomial max-flow optimum must be feasible
     and dominate greedy. *)
  let bw = Rng.float_in rng 10. 60. in
  let uniform = List.init n (fun id -> flow ~id bw) in
  let opt = Long_lived.optimal_uniform fabric ~bw uniform in
  let grd = Long_lived.greedy fabric uniform in
  if not (Long_lived.feasible fabric opt.Long_lived.accepted) then
    fail "longlived-optimal-feasible" "optimal_uniform returned an infeasible set";
  if not (Long_lived.feasible fabric grd.Long_lived.accepted) then
    fail "longlived-greedy-feasible" "greedy returned an infeasible set";
  if List.length opt.Long_lived.accepted < List.length grd.Long_lived.accepted then
    fail "longlived-dominance"
      (Printf.sprintf "optimum accepted %d < greedy %d"
         (List.length opt.Long_lived.accepted)
         (List.length grd.Long_lived.accepted));
  (if n <= 8 then
     let count, _, proved = Long_lived.exact fabric uniform in
     if proved && count <> List.length opt.Long_lived.accepted then
       fail "longlived-exact-agreement"
         (Printf.sprintf "branch-and-bound %d vs max-flow %d on a uniform instance" count
            (List.length opt.Long_lived.accepted)));
  (* Non-uniform instance: greedy stays feasible. *)
  let mixed = List.init n (fun id -> flow ~id (Rng.float_in rng 5. 80.)) in
  let g2 = Long_lived.greedy fabric mixed in
  if not (Long_lived.feasible fabric g2.Long_lived.accepted) then
    fail "longlived-greedy-feasible-nonuniform" "greedy returned an infeasible set";
  List.rev !findings

let engines_for (sc : Scenario.t) =
  Scheduler.shipped ~step:default_step ()
  @ Malleable.engines ()
  @
  if sc.Scenario.faults = [] then []
  else
    [ Injector.scheduler (injector_cfg Injector.Greedy) sc.Scenario.faults;
      Injector.scheduler (injector_cfg (Injector.Window default_step)) sc.Scenario.faults ]

let check ?engines (sc : Scenario.t) =
  match engines with
  | Some es -> List.concat_map (check_scheduler sc) es
  | None ->
      List.concat_map (check_scheduler sc) (engines_for sc)
      @ check_faulted sc @ check_parity sc @ check_sharded sc
      @ check_long_lived ~seed:sc.Scenario.seed ~size:(min sc.Scenario.size 16)
