module Rng = Gridbw_prng.Rng
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen
module Fabric = Gridbw_topology.Fabric
module Summary = Gridbw_metrics.Summary
module Rigid = Gridbw_core.Rigid
module Policy = Gridbw_core.Policy
module Scheduler = Gridbw_core.Scheduler
module Types = Gridbw_core.Types

type params = { count : int; reps : int; seed : int64 }

let defaults = { count = 600; reps = 3; seed = 42L }
let quick = { count = 150; reps = 2; seed = 42L }

let with_params ?count ?reps ?seed p =
  {
    count = Option.value ~default:p.count count;
    reps = Option.value ~default:p.reps reps;
    seed = Option.value ~default:p.seed seed;
  }

type rigid_kind = [ `Fcfs | `Fifo_blocking | `Slots of Rigid.cost_kind ]
type flex_kind = [ `Greedy | `Window of float | `Window_deferred of float ]

let seed_for p ~rep = Int64.add p.seed (Int64.of_int rep)

(* Experiment workloads compress the paper's volumes by 10x (see DESIGN.md
   section 3): mean transfer duration drops from ~24 min to ~2.4 min, so a
   run of a few thousand requests covers many transfer lifetimes and the
   measured rates reflect steady state rather than the empty-system
   transient.  Load, window/duration and rate ratios are unchanged. *)
let volume_scale = 0.1

let scaled_volumes =
  Spec.Choice (Array.map (fun v -> v *. volume_scale) Spec.paper_volume_set)

let rate_lo = 10.0
and rate_hi = 1000.0

(* E[vol / rate] for rate ~ U[lo, hi]: E[vol] * ln(hi/lo) / (hi - lo). *)
let mean_duration =
  Spec.mean_volume scaled_volumes *. (log (rate_hi /. rate_lo) /. (rate_hi -. rate_lo))

(* Enough requests that the arrival span covers >= ~8 transfer lifetimes,
   capped to keep the O(K^2) slot heuristics tractable. *)
let steady_count ?(cap = 3000) base ~mean_interarrival =
  let cap = min cap (base * 10) in
  let needed = int_of_float (Float.ceil (8.0 *. mean_duration /. mean_interarrival)) in
  max base (min cap needed)

let offered_load_of_interarrival mean_interarrival =
  Spec.mean_volume scaled_volumes
  /. (mean_interarrival *. Fabric.half_total_capacity (Fabric.paper_default ()))

let rigid_spec p ~load =
  if load <= 0. then invalid_arg "Runner.rigid_spec: load must be positive";
  let fabric = Fabric.paper_default () in
  let mean_interarrival =
    Spec.mean_volume scaled_volumes /. (load *. Fabric.half_total_capacity fabric)
  in
  Spec.make ~fabric ~volumes:scaled_volumes ~rate_lo ~rate_hi ~flexibility:Spec.Rigid
    ~count:(steady_count ~cap:2500 p.count ~mean_interarrival)
    ~mean_interarrival ()

let flexible_spec p ~mean_interarrival =
  Spec.make ~volumes:scaled_volumes ~rate_lo ~rate_hi
    ~flexibility:(Spec.Flexible { max_slack = 4.0 })
    ~count:(steady_count ~cap:8000 p.count ~mean_interarrival)
    ~mean_interarrival ()

let summary_of_result fabric (result : Types.result) =
  Summary.compute fabric ~all:result.Types.all ~accepted:result.Types.accepted

let scheduler_summary ?ctx p spec sched ~rep =
  let requests = Gen.generate (Rng.create ~seed:(seed_for p ~rep) ()) spec in
  summary_of_result spec.Spec.fabric (Scheduler.run ?ctx sched spec.Spec.fabric requests)

let rigid_summary p ~load kind ~rep =
  scheduler_summary p (rigid_spec p ~load) (Scheduler.of_rigid kind) ~rep

let flexible_summary p ~mean_interarrival kind policy ~rep =
  scheduler_summary p (flexible_spec p ~mean_interarrival) (Scheduler.of_flexible kind policy) ~rep

let mean_over_reps p f =
  let acc = ref 0.0 in
  for rep = 0 to p.reps - 1 do
    acc := !acc +. f ~rep
  done;
  !acc /. float_of_int (max 1 p.reps)

let rigid_kinds =
  [
    ("FIFO (blocking)", `Fifo_blocking);
    ("FCFS", `Fcfs);
    ("CUMULATED-SLOTS", `Slots Rigid.Cumulated);
    ("MINBW-SLOTS", `Slots Rigid.Min_bw);
    ("MINVOL-SLOTS", `Slots Rigid.Min_vol);
  ]

let rigid_schedulers =
  List.map (fun (label, kind) -> (label, Scheduler.of_rigid kind)) rigid_kinds

let policy_ladder =
  [
    ("MIN BW", Policy.Min_rate);
    ("f=0.2", Policy.Fraction_of_max 0.2);
    ("f=0.5", Policy.Fraction_of_max 0.5);
    ("f=0.8", Policy.Fraction_of_max 0.8);
    ("f=1.0", Policy.Fraction_of_max 1.0);
  ]
