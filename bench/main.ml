(* Benchmark harness:

   1. regenerates every table and figure of the paper (plus the extension
      experiments E5-E9 and ablation A1 of DESIGN.md) with moderate sizes,
      printing the same rows/series the paper reports;
   2. micro-benchmarks the core algorithms with Bechamel (one Test.make per
      experiment kernel).

     dune exec bench/main.exe

   Flags:
     --json PATH          dump the timings as a JSON array
     --only SUBSTRING     skip part 1 and run only the benchmarks whose
                          name contains SUBSTRING (e.g. --only admission)
     --admission-base N   base request count for the admission group
                          (default 400; the x10/x100 targets multiply it)
     --quota SECONDS      Bechamel time budget per benchmark (default 1.0;
                          raise it on noisy machines for tighter OLS fits) *)

open Bechamel
open Toolkit
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen
module Rigid = Gridbw_core.Rigid
module Flexible = Gridbw_core.Flexible
module Policy = Gridbw_core.Policy
module Exact = Gridbw_core.Exact
module Npc = Gridbw_core.Npc
module Unit_exact = Gridbw_core.Unit_exact
module Maxmin = Gridbw_baseline.Maxmin
module Fluid = Gridbw_baseline.Fluid
module Profile_ref = Gridbw_alloc.Profile_ref
module Timeline = Gridbw_alloc.Timeline
module Rng = Gridbw_prng.Rng
module Runner = Gridbw_experiments.Runner
module Figure = Gridbw_report.Figure
module Table = Gridbw_report.Table
module Provenance = Gridbw_report.Provenance
module Obs = Gridbw_obs.Obs
module Sink = Gridbw_obs.Sink
module Span = Gridbw_obs.Span
module Flight = Gridbw_obs.Flight
module Runtime = Gridbw_core.Runtime
module Store = Gridbw_store.Store
module Wal = Gridbw_store.Wal
module Malleable = Gridbw_malleable.Malleable

(* --- part 1: regenerate every figure and table --- *)

let params = Runner.with_params ~count:300 ~reps:2 Runner.quick

let regenerate () =
  print_endline "=== part 1: paper figures and tables ===\n";
  let accept, util = Gridbw_experiments.Figure4.run params in
  Figure.print accept;
  Figure.print util;
  Figure.print (Gridbw_experiments.Figure5.run params);
  let h6, u6 = Gridbw_experiments.Figure6.figure6 params in
  Figure.print h6;
  Figure.print u6;
  let h7, u7 = Gridbw_experiments.Figure6.figure7 params in
  Figure.print h7;
  Figure.print u7;
  print_endline "== E5: tuning factor ==";
  Table.print (Gridbw_experiments.Tuning.to_table (Gridbw_experiments.Tuning.run params));
  print_endline "== E6: optimality gap (rigid) ==";
  Table.print (Gridbw_experiments.Optgap.to_table (Gridbw_experiments.Optgap.run params));
  print_endline "== E14: optimality gap (flexible) ==";
  Table.print (Gridbw_experiments.Optgap.to_table (Gridbw_experiments.Optgap.run_flexible params));
  print_endline "== E7: TCP-surrogate comparison ==";
  Table.print
    (Gridbw_experiments.Baseline_cmp.to_table (Gridbw_experiments.Baseline_cmp.run params));
  print_endline "== E8: co-allocation ==";
  Table.print
    (Gridbw_experiments.Coalloc_exp.to_table (Gridbw_experiments.Coalloc_exp.run params));
  print_endline "== E9: Theorem 1 reduction ==";
  Table.print (Gridbw_experiments.Npc_demo.to_table (Gridbw_experiments.Npc_demo.run params));
  print_endline "== E10: long-lived uniform optimum ==";
  Table.print
    (Gridbw_experiments.Long_lived_exp.to_table (Gridbw_experiments.Long_lived_exp.run params));
  print_endline "== E11: distributed allocation ==";
  Table.print
    (Gridbw_experiments.Distributed_exp.to_table
       (Gridbw_experiments.Distributed_exp.run params));
  print_endline "== E12: book-ahead reservations ==";
  Table.print
    (Gridbw_experiments.Bookahead_exp.to_table (Gridbw_experiments.Bookahead_exp.run params));
  print_endline "== E13: raw TCP vs shaped reservations ==";
  Table.print
    (Gridbw_experiments.Transport_exp.to_table (Gridbw_experiments.Transport_exp.run params));
  print_endline "== E15: ample-core assumption stress ==";
  Table.print
    (Gridbw_experiments.Core_stress.to_table (Gridbw_experiments.Core_stress.run params));
  print_endline "== E16: guarantees under faults ==";
  Table.print (Gridbw_experiments.Fault_exp.to_table (Gridbw_experiments.Fault_exp.run params));
  Table.print
    (Gridbw_experiments.Fault_exp.ablation_table
       (Gridbw_experiments.Fault_exp.run_ablation params));
  Figure.print (Gridbw_experiments.Ablation.run params)

(* --- part 2: micro-benchmarks --- *)

let only_filter =
  let rec find = function
    | "--only" :: sub :: _ -> Some sub
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let quota =
  let rec find = function
    | "--quota" :: q :: _ -> float_of_string q
    | _ :: rest -> find rest
    | [] -> 1.0
  in
  find (Array.to_list Sys.argv)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

(* Fixed inputs, built once: the benchmarks measure the algorithms, not the
   generators. *)
let fabric = Fabric.paper_default ()

let rigid_workload =
  Gen.generate (Rng.create ~seed:1L ())
    (Runner.rigid_spec (Runner.with_params ~count:200 params) ~load:2.0)

let flexible_workload =
  Gen.generate (Rng.create ~seed:2L ())
    (Runner.flexible_spec (Runner.with_params ~count:400 params) ~mean_interarrival:0.4)

let small_rigid =
  let rng = Rng.create ~seed:3L () in
  List.init 13 (fun id ->
      let ts = Rng.float_in rng 0. 30. in
      Request.make_rigid ~id ~ingress:(Rng.int rng 2) ~egress:(Rng.int rng 2)
        ~bw:(Rng.float_in rng 20. 90.) ~ts ~tf:(ts +. Rng.float_in rng 2. 20.))

let small_fabric = Fabric.uniform ~ingress_count:2 ~egress_count:2 ~capacity:100.0
let npc_instance = fst (Npc.reduce (Npc.random (Rng.create ~seed:4L ()) ~n:3 ~extra_triples:2))

let maxmin_flows =
  let rng = Rng.create ~seed:5L () in
  Array.init 200 (fun _ ->
      { Maxmin.ingress = Rng.int rng 10; egress = Rng.int rng 10;
        max_rate = Rng.float_in rng 10. 1000. })

let caps = Array.make 10 1000.0

let fluid_workload =
  Gen.generate (Rng.create ~seed:6L ())
    (Runner.flexible_spec (Runner.with_params ~count:200 params) ~mean_interarrival:0.5)

let fault_script =
  Gridbw_fault.Fault.generate (Rng.create ~seed:11L ()) fabric
    ~horizon:(Gridbw_fault.Fault.horizon_of_requests flexible_workload)
    Gridbw_fault.Fault.default_spec

let fault_config =
  Gridbw_fault.Injector.default_config ~policy:(Policy.Fraction_of_max 0.8) ()

(* --- admission hot-path benchmarks ---

   The WINDOW/GREEDY admission kernels at 10x and 100x the fig5 request
   count, plus a substrate comparison running the exact same
   reserve + max_over sequence against the allocation structure.  These are
   the targets recorded in BENCH_admission.json (see README "Performance"). *)

let admission_base =
  let rec find = function
    | "--admission-base" :: n :: _ -> int_of_string n
    | _ :: rest -> find rest
    | [] -> 400
  in
  find (Array.to_list Sys.argv)

let admission_workload mult =
  Gen.generate
    (Rng.create ~seed:21L ())
    (Runner.flexible_spec
       (Runner.with_params ~count:(admission_base * mult) params)
       ~mean_interarrival:0.4)

let admission_x10 = admission_workload 10
let admission_x100 = admission_workload 100

(* Identical interval/query sequence replayed against each profile
   implementation: reserve n intervals, then one max_over per interval. *)
let maxover_ops =
  let rng = Rng.create ~seed:31L () in
  List.init (admission_base * 10) (fun _ ->
      let from_ = Rng.float_in rng 0. 10_000. in
      (from_, from_ +. Rng.float_in rng 1. 500., Rng.float_in rng 1. 100.))

(* --- telemetry overhead benchmarks ---

   The same GREEDY admission kernel under the three telemetry states:
   disabled ctx (the ?obs default everywhere), metrics-only ctx (counters +
   spans, no event sink), and a binary sink writing every event to a buffer.
   BENCH_obs.json records these; the disabled column must stay within noise
   of the plain fig5 kernel. *)

let obs_tests =
  let policy = Policy.Fraction_of_max 0.8 in
  let buf = Buffer.create (1 lsl 20) in
  [
    Test.make ~name:"obs:greedy-disabled"
      (Staged.stage (fun () -> Flexible.greedy fabric policy flexible_workload));
    Test.make ~name:"obs:greedy-metrics-noop"
      (Staged.stage (fun () ->
           Flexible.greedy
             ~ctx:(Runtime.make ~obs:(Obs.create ()) ())
             fabric policy flexible_workload));
    Test.make ~name:"obs:greedy-binary-buffer"
      (Staged.stage (fun () ->
           Buffer.clear buf;
           Flexible.greedy
             ~ctx:(Runtime.make ~obs:(Obs.create ~sink:(Sink.binary_buffer buf) ()) ())
             fabric policy flexible_workload));
    Test.make ~name:"obs:window-disabled"
      (Staged.stage (fun () ->
           Flexible.window fabric policy ~step:400. flexible_workload));
    Test.make ~name:"obs:window-binary-buffer"
      (Staged.stage (fun () ->
           Buffer.clear buf;
           Flexible.window
             ~ctx:(Runtime.make ~obs:(Obs.create ~sink:(Sink.binary_buffer buf) ()) ())
             fabric policy ~step:400. flexible_workload));
  ]

(* --- span tracing overhead benchmarks ---

   The per-request cost of the serve path's trace spans, isolated from
   the serve loop: open/record/finish one span, encode it as a binary
   frame, and persist it to the flight-recorder ring.  BENCH_obs.json
   records these; the lifecycle cost bounds what `--span-out` can add
   per request. *)

let span_tests =
  let buf = Buffer.create 256 in
  let flight_path = Filename.temp_file "gridbw-bench-flight" ".bin" in
  at_exit (fun () -> if Sys.file_exists flight_path then Sys.remove flight_path);
  let flight = lazy (Flight.create ~size:(1 lsl 16) flight_path) in
  let finished =
    let sp = Span.start ~conn:1 () in
    Span.set_req sp 42;
    List.iter (fun st -> Span.record sp st 123.) Span.all_stages;
    Span.finish sp;
    sp
  in
  [
    Test.make ~name:"span:lifecycle"
      (Staged.stage (fun () ->
           let sp = Span.start ~conn:1 () in
           Span.set_req sp 42;
           List.iter (fun st -> Span.timed (Some sp) st (fun () -> ())) Span.all_stages;
           Span.finish sp;
           Span.total_ns sp));
    Test.make ~name:"span:binary-encode"
      (Staged.stage (fun () ->
           Buffer.clear buf;
           Span.Binary.encode buf finished;
           Buffer.length buf));
    Test.make ~name:"span:flight-append"
      (Staged.stage (fun () -> Flight.append (Lazy.force flight) finished));
  ]

(* --- durable store benchmarks ---

   The same GREEDY admission kernel with the write-ahead journal off and
   on (group commit at the default batch=64 and the worst-case batch=1),
   plus recovery replay of a full journal.  BENCH_store.json records
   these; README "Durability" quotes the group-commit claim: the journal
   overhead at batch=64 (wal-batch64 minus wal-off) must stay under 10%
   of the fsync-per-record overhead (wal-batch1 minus wal-off) — group
   commit amortises the fsync, it cannot make durability free.  Each
   iteration journals one run into a fresh directory: reusing one store
   would grow its mirror ledger and event history across iterations and
   skew the time-boxed runs unevenly. *)

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let store_tests =
  let policy = Policy.Fraction_of_max 0.8 in
  let root =
    let dir = Filename.temp_file "gridbw-bench-store" "" in
    Sys.remove dir;
    Sys.mkdir dir 0o755;
    at_exit (fun () -> if Sys.file_exists dir then rm_rf dir);
    dir
  in
  let store_at ~batch name =
    Store.create
      ~config:
        { Store.default_config with wal = { Wal.default_config with Wal.batch } }
      ~dir:(Filename.concat root name) fabric
  in
  let journal s = Runtime.make ~obs:(Store.attach s Obs.disabled) () in
  let seq = ref 0 in
  let journaled_run ~batch () =
    incr seq;
    let name = Printf.sprintf "wal%d-%d" batch !seq in
    let s = store_at ~batch name in
    let r = Flexible.greedy ~ctx:(journal s) fabric policy flexible_workload in
    Store.close s;
    rm_rf (Filename.concat root name);
    r
  in
  let recover_dir = Filename.concat root "recover" in
  let seeded =
    lazy
      (let s = store_at ~batch:64 "recover" in
       ignore (Flexible.greedy ~ctx:(journal s) fabric policy flexible_workload);
       Store.close s)
  in
  [
    Test.make ~name:"store:greedy-wal-off"
      (Staged.stage (fun () -> Flexible.greedy fabric policy flexible_workload));
    Test.make ~name:"store:greedy-wal-batch64" (Staged.stage (journaled_run ~batch:64));
    Test.make ~name:"store:greedy-wal-batch1" (Staged.stage (journaled_run ~batch:1));
    Test.make ~name:"store:recover-full-journal"
      (Staged.stage (fun () ->
           Lazy.force seeded;
           match Store.recover ~dir:recover_dir () with
           | Ok r -> Store.close r.Store.store
           | Error msg -> failwith msg));
  ]

(* --- malleable engine benchmarks ---

   The step-profile water-fill admission kernel: the pure solve at 10x
   the fig5 request count (reshape disabled — isolates the water-fill
   from the EDF re-solve), and the reshape and booking modes on a
   dedicated overloaded 100-request workload.  Every failed admit
   re-solves the whole not-yet-started pending set on a scratch ledger,
   so the reshape kernels are quadratic-ish in the workload — they get a
   small fixed input rather than the x10 one.  BENCH_malleable.json
   records these; scripts/bench_delta.py gates the solve kernel against
   the GREEDY x100 reference so the quotient is machine-normalized. *)

let malleable_workload =
  Gen.generate (Rng.create ~seed:22L ())
    (Runner.flexible_spec (Runner.with_params ~count:100 params) ~mean_interarrival:0.4)

let malleable_tests =
  [
    Test.make ~name:"malleable:no-reshape-x10"
      (Staged.stage (fun () ->
           Malleable.run { Malleable.default with Malleable.reshape = false } fabric
             admission_x10));
    Test.make ~name:"malleable:reshape-100"
      (Staged.stage (fun () -> Malleable.run Malleable.default fabric malleable_workload));
    Test.make ~name:"malleable:bookahead-100"
      (Staged.stage (fun () ->
           Malleable.run { Malleable.default with Malleable.book_ahead = 30. } fabric
             malleable_workload));
  ]

let admission_tests =
  [
    Test.make ~name:"admission:window-x10"
      (Staged.stage (fun () ->
           Flexible.window fabric (Policy.Fraction_of_max 1.0) ~step:400. admission_x10));
    Test.make ~name:"admission:window-x100"
      (Staged.stage (fun () ->
           Flexible.window fabric (Policy.Fraction_of_max 1.0) ~step:400. admission_x100));
    Test.make ~name:"admission:greedy-x100"
      (Staged.stage (fun () ->
           Flexible.greedy fabric (Policy.Fraction_of_max 1.0) admission_x100));
    Test.make ~name:"admission:profile-ref-maxover"
      (Staged.stage (fun () ->
           let p =
             List.fold_left
               (fun p (f, u, bw) -> Profile_ref.add p ~from_:f ~until:u bw)
               Profile_ref.empty maxover_ops
           in
           List.fold_left
             (fun acc (f, u, _) -> acc +. Profile_ref.max_over p ~from_:f ~until:u)
             0. maxover_ops));
    Test.make ~name:"admission:timeline-maxover"
      (Staged.stage (fun () ->
           let t = Timeline.create () in
           List.iter (fun (f, u, bw) -> Timeline.add t ~from_:f ~until:u bw) maxover_ops;
           List.fold_left
             (fun acc (f, u, _) -> acc +. Timeline.max_over t ~from_:f ~until:u)
             0. maxover_ops));
  ]

let base_tests =
    [
      (* one kernel per paper table/figure *)
      Test.make ~name:"fig4:fcfs" (Staged.stage (fun () -> Rigid.fcfs fabric rigid_workload));
      Test.make ~name:"fig4:cumulated-slots"
        (Staged.stage (fun () -> Rigid.slots ~cost:Rigid.Cumulated fabric rigid_workload));
      Test.make ~name:"fig4:minbw-slots"
        (Staged.stage (fun () -> Rigid.slots ~cost:Rigid.Min_bw fabric rigid_workload));
      Test.make ~name:"fig4:minvol-slots"
        (Staged.stage (fun () -> Rigid.slots ~cost:Rigid.Min_vol fabric rigid_workload));
      Test.make ~name:"fig5:greedy"
        (Staged.stage (fun () ->
             Flexible.greedy fabric (Policy.Fraction_of_max 1.0) flexible_workload));
      Test.make ~name:"fig5:window-400"
        (Staged.stage (fun () ->
             Flexible.window fabric (Policy.Fraction_of_max 1.0) ~step:400. flexible_workload));
      Test.make ~name:"fig6:greedy-minrate"
        (Staged.stage (fun () -> Flexible.greedy fabric Policy.Min_rate flexible_workload));
      Test.make ~name:"fig7:window-400-f08"
        (Staged.stage (fun () ->
             Flexible.window fabric (Policy.Fraction_of_max 0.8) ~step:400. flexible_workload));
      Test.make ~name:"ablation:window-deferred"
        (Staged.stage (fun () ->
             Flexible.window_deferred fabric (Policy.Fraction_of_max 1.0) ~step:40.
               flexible_workload));
      Test.make ~name:"e6:exact-branch-and-bound"
        (Staged.stage (fun () -> Exact.max_requests small_fabric small_rigid));
      Test.make ~name:"e7:fluid-maxmin-simulation"
        (Staged.stage (fun () -> Fluid.simulate fabric fluid_workload));
      Test.make ~name:"e9:unit-exact-npc-n3"
        (Staged.stage (fun () -> Unit_exact.solve npc_instance));
      (* substrate kernels *)
      Test.make ~name:"maxmin:rates-200-flows"
        (Staged.stage (fun () -> Maxmin.rates ~caps_in:caps ~caps_out:caps maxmin_flows));
      Test.make ~name:"alloc:profile-100-reservations"
        (Staged.stage (fun () ->
             let p = ref Profile_ref.empty in
             for i = 0 to 99 do
               let t = float_of_int (i mod 17) in
               p := Profile_ref.add !p ~from_:t ~until:(t +. 5.) 10.
             done;
             Profile_ref.peak !p));
      Test.make ~name:"sim:event-queue-1k"
        (Staged.stage (fun () ->
             let q = Gridbw_sim.Event_queue.create () in
             for i = 0 to 999 do
               Gridbw_sim.Event_queue.push q ~time:(float_of_int ((i * 7919) mod 1000)) i
             done;
             Gridbw_sim.Event_queue.drain q));
      Test.make ~name:"e10:longlived-maxflow-200"
        (Staged.stage
           (let rng0 = Rng.create ~seed:10L () in
            let lreqs =
              List.init 200 (fun id ->
                  Gridbw_core.Long_lived.request ~id ~ingress:(Rng.int rng0 10)
                    ~egress:(Rng.int rng0 10) ~bw:300.)
            in
            fun () -> Gridbw_core.Long_lived.optimal_uniform fabric ~bw:300. lreqs));
      Test.make ~name:"e16:injector-greedy-faults"
        (Staged.stage (fun () ->
             Gridbw_fault.Injector.run fabric fault_config fault_script flexible_workload));
      Test.make ~name:"prng:10k-draws"
        (Staged.stage
           (let rng = Rng.create ~seed:9L () in
            fun () ->
              let acc = ref 0. in
              for _ = 1 to 10_000 do
                acc := !acc +. Rng.float rng 1.0
              done;
              !acc));
    ]

let tests =
  let all =
    base_tests @ admission_tests @ malleable_tests @ obs_tests @ span_tests @ store_tests
  in
  let selected =
    match only_filter with
    | None -> all
    | Some sub -> List.filter (fun t -> contains ~sub (Test.name t)) all
  in
  if selected = [] then (
    Printf.eprintf "no benchmark matches --only %s\n" (Option.get only_filter);
    exit 1);
  Test.make_grouped ~name:"gridbw" ~fmt:"%s %s" selected

let run_benchmarks () =
  print_endline "\n=== part 2: micro-benchmarks (Bechamel) ===\n";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:1000 ~quota:(Time.second quota) ~kde:(Some 100) () in
  let raw = Benchmark.all cfg instances tests in
  let results = Analyze.all ols (List.hd instances) raw in
  let timings =
    Hashtbl.fold
      (fun name ols_result acc ->
        let ns_per_run =
          match Analyze.OLS.estimates ols_result with Some (e :: _) -> e | _ -> Float.nan
        in
        (name, ns_per_run) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let rows =
    List.map
      (fun (name, ns) ->
        let time =
          if Float.is_nan ns then "n/a"
          else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
          else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
          else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
          else Printf.sprintf "%.0f ns" ns
        in
        [ name; time ])
      timings
  in
  Table.print (Table.make ~headers:[ "benchmark"; "time/run" ] rows);
  timings

(* JSON string escaping per RFC 8259 (benchmark names are plain ASCII, but
   be safe about quotes/backslashes/control characters). *)
let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json path timings =
  let oc = open_out path in
  output_string oc "[\n";
  List.iteri
    (fun i (name, ns) ->
      Printf.fprintf oc "  {\"name\": \"%s\", \"ns_per_run\": %s}%s\n" (json_escape name)
        (if Float.is_nan ns then "null" else Printf.sprintf "%.3f" ns)
        (if i < List.length timings - 1 then "," else ""))
    timings;
  output_string oc "]\n";
  close_out oc;
  Printf.printf "wrote %d timings to %s\n" (List.length timings) path

let json_out =
  let rec find = function
    | "--json" :: path :: _ -> Some path
    | _ :: rest -> find rest
    | [] -> None
  in
  find (Array.to_list Sys.argv)

let () =
  Provenance.print ~cmd:"bench"
    [ Provenance.seed params.Runner.seed; Provenance.int "count" params.Runner.count;
      Provenance.int "reps" params.Runner.reps;
      Provenance.int "admission-base" admission_base;
      ("admission-seed", "21") ];
  if only_filter = None then regenerate ();
  let timings = run_benchmarks () in
  Option.iter (fun path -> write_json path timings) json_out
