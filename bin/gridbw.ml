(* gridbw — command-line driver for the HPDC'06 bandwidth-sharing
   reproduction.  Subcommands regenerate each paper figure/table, generate
   and replay workload traces, and demonstrate the Theorem 1 reduction.
   See DESIGN.md for the experiment index. *)

open Cmdliner
module Figure = Gridbw_report.Figure
module Table = Gridbw_report.Table
module Spec = Gridbw_workload.Spec
module Gen = Gridbw_workload.Gen
module Trace = Gridbw_workload.Trace
module Summary = Gridbw_metrics.Summary
module Rigid = Gridbw_core.Rigid
module Policy = Gridbw_core.Policy
module Scheduler = Gridbw_core.Scheduler
module Types = Gridbw_core.Types
module Runner = Gridbw_experiments.Runner
module Rng = Gridbw_prng.Rng
module Provenance = Gridbw_report.Provenance
module Replay = Gridbw_metrics.Replay
module Obs = Gridbw_obs.Obs
module Sink = Gridbw_obs.Sink
module Span = Gridbw_obs.Span
module Flight = Gridbw_obs.Flight
module Runtime = Gridbw_core.Runtime
module Store = Gridbw_store.Store
module Json = Gridbw_obs.Json
module Daemon = Gridbw_serve.Daemon
module Loadgen = Gridbw_serve.Loadgen
module Malleable = Gridbw_malleable.Malleable
module Reference = Gridbw_check.Reference

(* --- shared options --- *)

let count_t =
  Arg.(value & opt (some int) None & info [ "count" ] ~docv:"N" ~doc:"Requests per replication.")

let reps_t =
  Arg.(value & opt (some int) None & info [ "reps" ] ~docv:"R" ~doc:"Replications per point.")

let seed_t =
  Arg.(value & opt (some int64) None & info [ "seed" ] ~docv:"SEED" ~doc:"Base RNG seed.")

let quick_t =
  Arg.(value & flag & info [ "quick" ] ~doc:"Small sizes (fast smoke run).")

let csv_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv-dir" ] ~docv:"DIR" ~doc:"Also write each figure/table as CSV into $(docv).")

let params_of quick count reps seed =
  let base = if quick then Runner.quick else Runner.defaults in
  Runner.with_params ?count ?reps ?seed base

let params_fields (p : Runner.params) =
  [ Provenance.seed p.Runner.seed; Provenance.int "count" p.Runner.count;
    Provenance.int "reps" p.Runner.reps ]

let write_csv ?stamp dir name contents =
  match dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path = Filename.concat dir (name ^ ".csv") in
      let oc = open_out path in
      Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
          Option.iter (fun s -> output_string oc (s ^ "\n")) stamp;
          output_string oc contents);
      Printf.printf "wrote %s\n" path

let emit_figure ?stamp csv_dir fig =
  Figure.print fig;
  write_csv ?stamp csv_dir fig.Figure.id (Figure.to_csv fig);
  match csv_dir with
  | None -> ()
  | Some dir -> Printf.printf "wrote %s\n" (Gridbw_report.Gnuplot.write ~dir fig)

let emit_table ?stamp csv_dir name table =
  Printf.printf "== %s ==\n" name;
  Table.print table;
  write_csv ?stamp csv_dir name (Table.to_csv table)

(* --- figure command --- *)

let run_figure params csv_dir num =
  let stamp = Provenance.line ~cmd:(Printf.sprintf "figure %d" num) (params_fields params) in
  let emit_figure fig = emit_figure ~stamp csv_dir fig in
  match num with
  | 4 ->
      print_endline stamp;
      let accept, util = Gridbw_experiments.Figure4.run params in
      emit_figure accept;
      emit_figure util
  | 5 ->
      print_endline stamp;
      emit_figure (Gridbw_experiments.Figure5.run params)
  | 6 ->
      print_endline stamp;
      let heavy, under = Gridbw_experiments.Figure6.figure6 params in
      emit_figure heavy;
      emit_figure under
  | 7 ->
      print_endline stamp;
      let heavy, under = Gridbw_experiments.Figure6.figure7 params in
      emit_figure heavy;
      emit_figure under
  | n -> Printf.eprintf "unknown figure %d (paper evaluation figures: 4-7)\n" n

let figure_cmd =
  let num_t = Arg.(required & pos 0 (some int) None & info [] ~docv:"NUM" ~doc:"Figure number (4-7).") in
  let run num quick count reps seed csv_dir =
    run_figure (params_of quick count reps seed) csv_dir num
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate a paper figure (4, 5, 6 or 7).")
    Term.(const run $ num_t $ quick_t $ count_t $ reps_t $ seed_t $ csv_dir_t)

(* --- table command --- *)

let table_names =
  [ "tuning"; "optgap"; "baseline"; "coalloc"; "npc"; "ablation"; "longlived"; "distributed";
    "bookahead"; "transport"; "corestress"; "faults"; "malleable" ]

let run_table params csv_dir name =
  let stamp = Provenance.line ~cmd:("table " ^ name) (params_fields params) in
  let emit_table csv_dir n t = emit_table ~stamp csv_dir n t in
  let emit_figure csv_dir fig = emit_figure ~stamp csv_dir fig in
  if List.mem name table_names then print_endline stamp;
  match name with
  | "tuning" ->
      emit_table csv_dir "tuning"
        (Gridbw_experiments.Tuning.to_table (Gridbw_experiments.Tuning.run params))
  | "optgap" ->
      emit_table csv_dir "optgap"
        (Gridbw_experiments.Optgap.to_table (Gridbw_experiments.Optgap.run params));
      emit_table csv_dir "optgap-flexible"
        (Gridbw_experiments.Optgap.to_table (Gridbw_experiments.Optgap.run_flexible params))
  | "baseline" ->
      emit_table csv_dir "baseline"
        (Gridbw_experiments.Baseline_cmp.to_table (Gridbw_experiments.Baseline_cmp.run params))
  | "coalloc" ->
      emit_table csv_dir "coalloc"
        (Gridbw_experiments.Coalloc_exp.to_table (Gridbw_experiments.Coalloc_exp.run params))
  | "npc" ->
      emit_table csv_dir "npc"
        (Gridbw_experiments.Npc_demo.to_table (Gridbw_experiments.Npc_demo.run params))
  | "ablation" -> emit_figure csv_dir (Gridbw_experiments.Ablation.run params)
  | "longlived" ->
      emit_table csv_dir "longlived"
        (Gridbw_experiments.Long_lived_exp.to_table (Gridbw_experiments.Long_lived_exp.run params))
  | "distributed" ->
      emit_table csv_dir "distributed"
        (Gridbw_experiments.Distributed_exp.to_table
           (Gridbw_experiments.Distributed_exp.run params))
  | "bookahead" ->
      emit_table csv_dir "bookahead"
        (Gridbw_experiments.Bookahead_exp.to_table (Gridbw_experiments.Bookahead_exp.run params))
  | "transport" ->
      emit_table csv_dir "transport"
        (Gridbw_experiments.Transport_exp.to_table (Gridbw_experiments.Transport_exp.run params))
  | "corestress" ->
      emit_table csv_dir "corestress"
        (Gridbw_experiments.Core_stress.to_table (Gridbw_experiments.Core_stress.run params))
  | "faults" ->
      let g_ok, w_ok = Gridbw_experiments.Fault_exp.parity params in
      Printf.printf "fault-free parity: greedy %s, window %s\n%!"
        (if g_ok then "ok" else "BROKEN") (if w_ok then "ok" else "BROKEN");
      emit_table csv_dir "faults"
        (Gridbw_experiments.Fault_exp.to_table (Gridbw_experiments.Fault_exp.run params));
      emit_table csv_dir "faults-victims"
        (Gridbw_experiments.Fault_exp.ablation_table
           (Gridbw_experiments.Fault_exp.run_ablation params))
  | "malleable" ->
      emit_table csv_dir "malleable"
        (Gridbw_experiments.Malleable_exp.to_table (Gridbw_experiments.Malleable_exp.run params));
      emit_table csv_dir "malleable-optgap"
        (Gridbw_experiments.Malleable_exp.gap_table
           (Gridbw_experiments.Malleable_exp.gap ~seed:params.Runner.seed ()))
  | other ->
      Printf.eprintf "unknown table %s (%s)\n" other (String.concat "|" table_names)

let table_cmd =
  let name_t =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"NAME" ~doc:"tuning, optgap, baseline, coalloc, npc, ablation, longlived, distributed, bookahead, transport, corestress, faults or malleable.")
  in
  let run name quick count reps seed csv_dir =
    run_table (params_of quick count reps seed) csv_dir name
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Regenerate an extension experiment table (E5-E9).")
    Term.(const run $ name_t $ quick_t $ count_t $ reps_t $ seed_t $ csv_dir_t)

(* --- all command --- *)

let all_cmd =
  let run quick count reps seed csv_dir =
    let params = params_of quick count reps seed in
    List.iter (run_figure params csv_dir) [ 4; 5; 6; 7 ];
    List.iter (run_table params csv_dir) table_names
  in
  Cmd.v
    (Cmd.info "all" ~doc:"Regenerate every figure and table.")
    Term.(const run $ quick_t $ count_t $ reps_t $ seed_t $ csv_dir_t)

(* --- workload command --- *)

let workload_cmd =
  let out_t =
    Arg.(required & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output CSV.")
  in
  let load_t =
    Arg.(value & opt (some float) None & info [ "load" ] ~docv:"L" ~doc:"Rigid workload at offered load $(docv).")
  in
  let inter_t =
    Arg.(value & opt (some float) None
         & info [ "interarrival" ] ~docv:"T" ~doc:"Flexible workload with mean inter-arrival $(docv) s.")
  in
  let run out load inter count seed =
    let count = Option.value ~default:1000 count in
    let seed = Option.value ~default:42L seed in
    let spec =
      match (load, inter) with
      | Some load, None -> Spec.paper_rigid ~count ~load ()
      | None, Some mean_interarrival -> Spec.paper_flexible ~count ~mean_interarrival ()
      | None, None -> Spec.paper_flexible ~count ~mean_interarrival:1.0 ()
      | Some _, Some _ -> failwith "pass either --load (rigid) or --interarrival (flexible)"
    in
    Provenance.print ~cmd:"workload"
      (Provenance.seed seed :: Provenance.int "count" count
      ::
      (match (load, inter) with
      | Some l, _ -> [ Provenance.float "load" l ]
      | None, Some t -> [ Provenance.float "interarrival" t ]
      | None, None -> [ Provenance.float "interarrival" 1.0 ]));
    let requests = Gen.generate (Rng.create ~seed ()) spec in
    Trace.to_file out requests;
    Format.printf "%a@.wrote %d requests to %s (measured load %.2f)@." Spec.pp spec
      (List.length requests) out
      (Gen.measured_load spec.Spec.fabric requests)
  in
  Cmd.v
    (Cmd.info "workload" ~doc:"Generate a workload trace (section 4.3 / 5.3 settings).")
    Term.(const run $ out_t $ load_t $ inter_t $ count_t $ seed_t)

(* --- run command --- *)

(* A trace [Trace.of_file] refuses (a malformed line, a repeated id) is
   an input error: its message and exit 2, not an uncaught exception. *)
let read_trace path =
  match Trace.of_file path with
  | requests -> requests
  | exception Failure msg ->
      prerr_endline msg;
      exit 2

let pp_heuristic ppf = function
  | `Fcfs -> Format.pp_print_string ppf "fcfs"
  | `Fifo_blocking -> Format.pp_print_string ppf "fifo"
  | `Slots c -> Format.pp_print_string ppf (Rigid.cost_name c)
  | `Greedy -> Format.pp_print_string ppf "greedy"
  | `Window -> Format.pp_print_string ppf "window"
  | `Window_deferred -> Format.pp_print_string ppf "window-deferred"
  | `Malleable -> Format.pp_print_string ppf "malleable"

let heuristic_conv =
  let parse = function
    | "fcfs" -> Ok `Fcfs
    | "fifo" -> Ok `Fifo_blocking
    | "cumulated" -> Ok (`Slots Rigid.Cumulated)
    | "minbw" -> Ok (`Slots Rigid.Min_bw)
    | "minvol" -> Ok (`Slots Rigid.Min_vol)
    | "greedy" -> Ok `Greedy
    | "window" -> Ok `Window
    | "window-deferred" -> Ok `Window_deferred
    | "malleable" -> Ok `Malleable
    | s -> Error (`Msg ("unknown heuristic " ^ s))
  in
  Arg.conv (parse, pp_heuristic)

(* The stamp of a trace-replay command: everything that determines the
   decision stream, and nothing about output destinations — a traced run
   and a plain run must print byte-identical stdout (CI checks this). *)
let replay_fields ?(book_ahead = 0.) ?(reshape = true) trace heuristic policy step =
  [ ("trace", trace);
    ("heuristic", Format.asprintf "%a" pp_heuristic heuristic);
    ("policy", Format.asprintf "%a" Policy.pp policy);
    Provenance.float "step" step ]
  @
  (* only the malleable engine reads these two, so only its stamp
     carries them — other heuristics' stdout is unchanged *)
  match heuristic with
  | `Malleable ->
      [ Provenance.float "book_ahead" book_ahead; ("reshape", string_of_bool reshape) ]
  | _ -> []

let policy_conv =
  let parse s =
    if s = "minrate" then Ok Policy.Min_rate
    else
      match float_of_string_opt s with
      | Some f when f >= 0. && f <= 1. -> Ok (Policy.Fraction_of_max f)
      | _ -> Error (`Msg "policy is 'minrate' or a fraction in [0,1]")
  in
  Arg.conv (parse, Policy.pp)

(* Both trace-replay commands dispatch through the first-class scheduler
   interface rather than matching on heuristic constructors. *)
let scheduler_of ?(book_ahead = 0.) ?(reshape = true) heuristic policy ~step =
  match heuristic with
  | (`Fcfs | `Fifo_blocking | `Slots _) as kind -> Scheduler.of_rigid kind
  | `Greedy -> Scheduler.of_flexible `Greedy policy
  | `Window -> Scheduler.of_flexible (`Window step) policy
  | `Window_deferred -> Scheduler.of_flexible (`Window_deferred step) policy
  | `Malleable -> Malleable.scheduler { Malleable.book_ahead; reshape }

(* The audit verdict of a recovered journal, on stderr. *)
let print_audit = function
  | Reference.Clean n ->
      Printf.eprintf "audit clean: %d surviving allocations within capacity\n%!" n
  | Reference.Skipped why -> Printf.eprintf "note: audit skipped: %s\n%!" why
  | Reference.Failed failures -> List.iter (Printf.eprintf "audit: %s\n%!") failures

let run_cmd =
  let trace_t =
    Arg.(required & opt (some file) None & info [ "trace" ] ~docv:"FILE" ~doc:"Workload CSV.")
  in
  let heuristic_t =
    Arg.(value & opt heuristic_conv `Greedy
         & info [ "heuristic" ] ~docv:"H"
             ~doc:"fifo|fcfs|cumulated|minbw|minvol|greedy|window|window-deferred|malleable.")
  in
  let policy_t =
    Arg.(value & opt policy_conv Policy.Min_rate
         & info [ "policy" ] ~docv:"P" ~doc:"minrate or a MaxRate fraction f in [0,1].")
  in
  let step_t =
    Arg.(value & opt float 400. & info [ "step" ] ~docv:"S" ~doc:"WINDOW interval length (s).")
  in
  let book_ahead_t =
    Arg.(value & opt float 0.
         & info [ "book-ahead" ] ~docv:"S"
             ~doc:"MALLEABLE: decide each request $(docv) seconds before its start time \
                   (in-advance booking; announce order).")
  in
  let no_reshape_t =
    Arg.(value & flag
         & info [ "no-reshape" ]
             ~doc:"MALLEABLE: reject on first fit failure instead of re-solving the \
                   pending (admitted, not yet started) profiles.")
  in
  let trace_out_t =
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE"
             ~doc:"Write an event trace of every arrival and decision to $(docv), as \
                   length-prefixed binary frames.  replay-trace rebuilds the summary from it.")
  in
  let metrics_out_t =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Dump the telemetry registry (Prometheus text format) to $(docv).")
  in
  let store_dir_t =
    Arg.(value & opt (some string) None
         & info [ "store-dir" ] ~docv:"DIR"
             ~doc:"Journal the run durably into $(docv) (a write-ahead log).  If $(docv) already \
                   holds a store, recover it and resume the interrupted run (greedy only); the \
                   resumed stdout is byte-identical to an uninterrupted run.")
  in
  let store_kill_t =
    Arg.(value & opt (some int) None
         & info [ "store-kill-after" ] ~docv:"N"
             ~doc:"Crash drill: SIGKILL the process mid-append of WAL record $(docv), leaving a \
                   torn record on disk (testing aid).")
  in
  let run trace heuristic policy step book_ahead no_reshape trace_out metrics_out
      store_dir store_kill =
    let reshape = not no_reshape in
    let requests = read_trace trace in
    let fabric = Gridbw_topology.Fabric.paper_default () in
    let sched = scheduler_of ~book_ahead ~reshape heuristic policy ~step in
    Provenance.print ~cmd:"run" (replay_fields ~book_ahead ~reshape trace heuristic policy step);
    let trace_oc = Option.map open_out_bin trace_out in
    let obs =
      match (trace_oc, metrics_out, store_dir) with
      | None, None, None -> None
      | _ -> Some (Obs.create ?sink:(Option.map Sink.binary trace_oc) ())
    in
    (* The journal is one more sink, attached once to the run's context. *)
    let journaled store =
      Runtime.make ~obs:(Store.attach store (Option.value obs ~default:Obs.disabled)) ()
    in
    let store_config = { Store.default_config with kill_after = store_kill } in
    let result =
      match store_dir with
      | None ->
          Scheduler.run
            ?ctx:(Option.map (fun o -> Runtime.make ~obs:o ()) obs)
            sched fabric requests
      | Some dir when not (Store.exists ~dir) ->
          (* Fresh journal: stamp the capacity prefix at/before the first
             arrival so the event stream stays monotone. *)
          let t0 =
            List.fold_left
              (fun t (r : Gridbw_request.Request.t) -> Float.min t r.Gridbw_request.Request.ts)
              0.0 requests
          in
          let store = Store.create ~config:store_config ?obs ~time:t0 ~dir fabric in
          let result =
            Scheduler.run ~ctx:(journaled store) sched fabric requests
          in
          Store.close store;
          Printf.eprintf "journaled %d records to %s\n%!" (Store.records store) dir;
          result
      | Some dir -> (
          (match heuristic with
          | `Greedy -> ()
          | _ ->
              prerr_endline "error: resuming a store supports --heuristic greedy only";
              exit 2);
          match Store.recover ~config:store_config ?obs ~dir () with
          | Error msg ->
              Printf.eprintf "error: cannot recover %s: %s\n" dir msg;
              exit 1
          | Ok r ->
              Printf.eprintf "recovered %s: %d records, %d torn bytes discarded\n%!" dir
                (Store.records r.Store.store) r.Store.truncated_bytes;
              (* Resume only from a journal the audit passes, as every
                 other recovery path does. *)
              let verdict = Reference.audit_recovered r in
              print_audit verdict;
              Option.iter
                (fun why ->
                  Printf.eprintf "error: cannot resume %s: %s\n" dir why;
                  exit 1)
                (Reference.refusal verdict);
              let result =
                Gridbw_core.Flexible.greedy ~ctx:(journaled r.Store.store)
                  ~journal:r.Store.journal.Replay.events r.Store.journal.Replay.fabric policy
                  requests
              in
              Store.close r.Store.store;
              Printf.eprintf "journaled %d records to %s\n%!" (Store.records r.Store.store) dir;
              result)
    in
    Option.iter Obs.flush obs;
    Option.iter close_out trace_oc;
    (* Side artefacts are reported on stderr: stdout stays identical to a
       plain (untraced) run. *)
    Option.iter (Printf.eprintf "wrote %s\n%!") trace_out;
    (match (metrics_out, obs) with
    | Some path, Some o ->
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> output_string oc (Gridbw_obs.Metrics.to_prometheus (Obs.metrics o)));
        Printf.eprintf "wrote %s\n%!" path
    | _ -> ());
    let summary = Summary.compute fabric ~all:requests ~accepted:result.Types.accepted in
    Format.printf "%a@." Summary.pp summary;
    if not (Gridbw_metrics.Validate.is_valid fabric result.Types.accepted) then begin
      prerr_endline "internal error: infeasible schedule";
      prerr_endline (Gridbw_metrics.Validate.report fabric result.Types.accepted);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run one heuristic on a workload trace and print its summary.")
    Term.(
      const run $ trace_t $ heuristic_t $ policy_t $ step_t $ book_ahead_t $ no_reshape_t
      $ trace_out_t $ metrics_out_t $ store_dir_t $ store_kill_t)

(* --- replay-trace command --- *)

let replay_trace_cmd =
  let trace_t =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE"
             ~doc:"Event trace written by run --trace-out (binary frames; span frames \
                   of a serve trace are skipped).")
  in
  let run trace =
    (* Bundle traces open with Capacity events describing their own
       fabric; plain --trace-out traces fall back to the paper one.  A
       present-but-broken prefix, or a port the fabric lacks, is an
       error. *)
    let default () =
      prerr_endline "note: no capacity prefix in trace; using the paper fabric";
      Gridbw_topology.Fabric.paper_default ()
    in
    match Replay.of_file ~default trace with
    | Error msg ->
        Printf.eprintf "replay-trace: %s\n" msg;
        exit 1
    | Ok r ->
        Provenance.print ~cmd:"replay-trace" [ ("trace", trace) ];
        if not (Replay.monotone r.Replay.events) then
          prerr_endline "warning: trace timestamps are not monotone (engine-driven trace?)";
        Format.printf "%a@." Summary.pp (Replay.summary r)
  in
  Cmd.v
    (Cmd.info "replay-trace"
       ~doc:"Rebuild a run's summary from its binary event trace alone.")
    Term.(const run $ trace_t)

(* --- trace-report command --- *)

let trace_report_cmd =
  let trace_t =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"TRACE"
             ~doc:"Any binary trace holding span records: a serve --span-out file, or a \
                   mixed trace — non-span records are skipped.")
  in
  let top_t =
    Arg.(value & opt int 10
         & info [ "top" ] ~docv:"K" ~doc:"How many of the slowest requests to list.")
  in
  let run trace top =
    match Gridbw_metrics.Trace_report.load trace with
    | Error msg ->
        Printf.eprintf "trace-report: %s\n" msg;
        exit 1
    | Ok t ->
        if Gridbw_metrics.Trace_report.spans t = [] then begin
          Printf.eprintf "trace-report: no span records in %s\n" trace;
          exit 1
        end;
        print_string (Gridbw_metrics.Trace_report.render ~top t)
  in
  Cmd.v
    (Cmd.info "trace-report"
       ~doc:"Aggregate request trace spans offline: per-stage latency breakdown \
             (p50/p95/p99) and the slowest requests.")
    Term.(const run $ trace_t $ top_t)

(* --- recover command --- *)

let recover_cmd =
  let dir_t =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR" ~doc:"Store directory written by run --store-dir.")
  in
  let metrics_out_t =
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE"
             ~doc:"Dump the telemetry registry (recovery counters included) to $(docv).")
  in
  let json_t =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Machine-readable output: one JSON object on stdout with the record \
                   counts, the audit verdict, and every surviving accepted allocation \
                   (bit-exact floats).  Exit status 1 when the audit fails.")
  in
  let flight_t =
    Arg.(value & opt (some file) None
         & info [ "flight" ] ~docv:"FILE"
             ~doc:"Also scan the crash-surviving flight-recorder ring written by \
                   serve --flight-recorder and dump the last spans before the crash \
                   (--flight-last of them).")
  in
  let flight_last_t =
    Arg.(value & opt int 20
         & info [ "flight-last" ] ~docv:"N" ~doc:"How many of the newest spans to dump.")
  in
  let flight_spans path last =
    match Flight.scan path with
    | Error msg ->
        Printf.eprintf "recover: flight recorder %s: %s\n" path msg;
        exit 1
    | Ok spans -> (List.length spans, Flight.last last spans)
  in
  (* The text form: the journaled run's summary on stdout, the audit and
     the flight tail on stderr. *)
  let render_text dir (r : Store.recovered) verdict flight =
    Provenance.print ~cmd:"recover" [ ("dir", dir) ];
    Printf.eprintf "recovered %d records, %d torn bytes discarded\n%!"
      (Store.records r.Store.store) r.Store.truncated_bytes;
    (* The surviving journal is a self-contained trace: its leading
       Capacity prefix names the fabric, so the journaled run's summary
       is rebuilt from the log alone. *)
    Format.printf "%a@." Summary.pp (Replay.summary r.Store.journal);
    print_audit verdict;
    Option.iter
      (fun (total, spans) ->
        Printf.eprintf "flight recorder: %d spans recovered; newest %d:\n%!" total
          (List.length spans);
        List.iter (fun sp -> Format.eprintf "  %a@." Span.pp sp) spans)
      flight
  in
  (* The machine-readable form the serve-smoke drill consumes: every
     surviving accepted allocation with bit-exact floats, so acked
     responses can be compared field by field. *)
  let render_json (r : Store.recovered) verdict flight =
    let audit, violations =
      match verdict with
      | Reference.Clean _ -> ("clean", [])
      | Reference.Skipped _ -> ("skipped", [])
      | Reference.Failed failures -> ("failed", failures)
    in
    let accepted =
      List.map
        (fun (time, a) ->
          let open Gridbw_alloc.Allocation in
          Json.Obj
            [
              ("id", Json.Num (float_of_int a.request.Gridbw_request.Request.id));
              ("bw", Json.Num a.bw);
              ("sigma", Json.Num a.sigma);
              ("tau", Json.Num a.tau);
              ("decided_at", Json.Num time);
            ])
        r.Store.accepted
    in
    let flight_fields =
      match flight with
      | None -> []
      | Some (total, spans) ->
          [
            ("flight_total", Json.Num (float_of_int total));
            ("flight_last",
             Json.List
               (List.map
                  (fun sp ->
                    Json.Obj
                      (("span", Json.Num (float_of_int (Span.id sp)))
                       :: (match Span.req sp with
                          | Some r -> [ ("req", Json.Num (float_of_int r)) ]
                          | None -> [])
                      @ [
                          ("conn", Json.Num (float_of_int (Span.conn sp)));
                          ("total_ns", Json.Num (Span.total_ns sp));
                          ("probes", Json.Num (float_of_int (Span.probes sp)));
                        ]))
                  spans));
          ]
    in
    print_endline
      (Json.to_string
         (Json.Obj
            ([
              ("ok", Json.Bool (violations = []));
              ("records", Json.Num (float_of_int (Store.records r.Store.store)));
              ("truncated_bytes", Json.Num (float_of_int r.Store.truncated_bytes));
              ("audit", Json.Str audit);
              ("violations", Json.List (List.map (fun v -> Json.Str v) violations));
              ("accepted", Json.List accepted);
              ("cancelled",
               Json.List
                 (List.map
                    (fun id -> Json.Num (float_of_int id))
                    r.Store.journal.Replay.cancelled));
            ]
            @ flight_fields)))
  in
  (* One recover-and-audit path; the two forms only render its verdict.
     Exit status 1 when recovery or the audit fails. *)
  let run dir json metrics_out flight flight_last =
    let obs = Obs.create () in
    match Store.recover ~obs ~dir () with
    | Error msg ->
        if json then
          print_endline
            (Json.to_string (Json.Obj [ ("ok", Json.Bool false); ("error", Json.Str msg) ]))
        else Printf.eprintf "recover: %s\n" msg;
        exit 1
    | Ok r ->
        let verdict = Reference.audit_recovered r in
        let flight = Option.map (fun path -> flight_spans path flight_last) flight in
        if json then render_json r verdict flight else render_text dir r verdict flight;
        Store.close r.Store.store;
        Option.iter
          (fun path ->
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc (Gridbw_obs.Metrics.to_prometheus (Obs.metrics obs)));
            Printf.eprintf "wrote %s\n%!" path)
          metrics_out;
        match verdict with Reference.Failed _ -> exit 1 | _ -> ()
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:"Recover a durable store: truncate the torn WAL tail, rebuild and audit the \
             journaled admission state, print the journaled run's summary.  With \
             --flight, also dump the tail of a crash-surviving flight-recorder ring.")
    Term.(const run $ dir_t $ json_t $ metrics_out_t $ flight_t $ flight_last_t)

(* --- fuzz command --- *)

module Scenario = Gridbw_check.Scenario
module Harness = Gridbw_check.Harness
module Fuzz = Gridbw_check.Fuzz

let fuzz_cmd =
  let budget_t =
    Arg.(value & opt int 200
         & info [ "budget" ] ~docv:"N" ~doc:"Scenarios to generate and check.")
  in
  let engine_t =
    Arg.(value & opt_all string []
         & info [ "engine" ] ~docv:"E"
             ~doc:"Restrict the sweep to the named engine (repeatable; default: every \
                   shipped scheduler plus the fault-injector and long-lived checks).")
  in
  let family_t =
    Arg.(value & opt_all string []
         & info [ "family" ] ~docv:"F"
             ~doc:"Scenario families to rotate through (repeatable): hotspot-skew, \
                   deadline-tight, near-rigid, revision-storm, cross-shard-storm, \
                   reshape-storm or mixed.")
  in
  let out_t =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"DIR"
             ~doc:"Write each minimized counterexample as a replayable bundle under \
                   $(docv)/case-<i>/.")
  in
  let min_size_t =
    Arg.(value & opt (some int) None
         & info [ "min-size" ] ~docv:"N" ~doc:"Smallest scenario size (requests).")
  in
  let max_size_t =
    Arg.(value & opt (some int) None
         & info [ "max-size" ] ~docv:"N" ~doc:"Largest scenario size (requests).")
  in
  let run budget seed engine_names family_names out min_size max_size =
    let seed = Option.value ~default:42L seed in
    let engines =
      match engine_names with
      | [] -> None
      | names ->
          let pool = Scheduler.shipped ~step:Harness.default_step () @ Malleable.engines () in
          Some
            (List.map
               (fun n ->
                 match Scheduler.find pool n with
                 | Some e -> e
                 | None ->
                     Printf.eprintf "fuzz: unknown engine %s (known: %s)\n" n
                       (String.concat ", "
                          (List.map Scheduler.name pool));
                     exit 2)
               names)
    in
    let families =
      match family_names with
      | [] -> None
      | names ->
          Some
            (List.map
               (fun n ->
                 match Scenario.family_of_name n with
                 | Some f -> f
                 | None ->
                     Printf.eprintf "fuzz: unknown family %s (known: %s)\n" n
                       (String.concat ", " (List.map Scenario.family_name Scenario.families));
                     exit 2)
               names)
    in
    Provenance.print ~cmd:"fuzz"
      (Provenance.seed seed :: Provenance.int "budget" budget
      :: (if engine_names = [] then [] else [ ("engines", String.concat "+" engine_names) ])
      @ (if family_names = [] then [] else [ ("families", String.concat "+" family_names) ]));
    let outcome =
      Fuzz.run ?engines ?families ?min_size ?max_size
        ~log:(fun line -> Printf.eprintf "%s\n%!" line)
        ~budget ~seed ()
    in
    Printf.printf "fuzz: %d scenarios checked, %d counterexample(s)\n" outcome.Fuzz.scenarios
      (List.length outcome.Fuzz.failures);
    List.iteri
      (fun i (f : Fuzz.failure) ->
        Format.printf "@[<v2>counterexample %d: %a@,%a@]@." i Scenario.pp f.Fuzz.scenario
          (Format.pp_print_list Harness.pp_finding)
          f.Fuzz.findings;
        Option.iter
          (fun dir ->
            let case = Fuzz.write_bundle ?engines ~dir ~index:i f in
            Printf.printf "wrote %s\n" case)
          out)
      outcome.Fuzz.failures;
    if outcome.Fuzz.failures <> [] then exit 1
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: adversarial scenarios against every scheduler, \
             cross-checked against the reference admission model.")
    Term.(const run $ budget_t $ seed_t $ engine_t $ family_t $ out_t $ min_size_t $ max_size_t)

let hotspot_cmd =
  let trace_t =
    Arg.(required & opt (some file) None & info [ "trace" ] ~docv:"FILE" ~doc:"Workload CSV.")
  in
  let heuristic_t =
    Arg.(value & opt heuristic_conv `Greedy
         & info [ "heuristic" ] ~docv:"H" ~doc:"Admission heuristic (see run).")
  in
  let policy_t =
    Arg.(value & opt policy_conv (Policy.Fraction_of_max 0.8)
         & info [ "policy" ] ~docv:"P" ~doc:"minrate or a MaxRate fraction f in [0,1].")
  in
  let step_t =
    Arg.(value & opt float 400. & info [ "step" ] ~docv:"S" ~doc:"WINDOW interval length (s).")
  in
  let run trace heuristic policy step =
    let requests = read_trace trace in
    let fabric = Gridbw_topology.Fabric.paper_default () in
    let sched = scheduler_of heuristic policy ~step in
    Provenance.print ~cmd:"hotspot" (replay_fields trace heuristic policy step);
    let result = Scheduler.run sched fabric requests in
    let reports =
      Gridbw_metrics.Hotspot.analyze fabric ~all:requests ~accepted:result.Types.accepted
    in
    Table.print
      (Table.make
         ~headers:[ "side"; "port"; "pressure"; "demand MB/s"; "granted MB/s"; "accepted" ]
         (List.map
            (fun r ->
              let open Gridbw_metrics.Hotspot in
              [
                (match r.side with Ingress -> "ingress" | Egress -> "egress");
                string_of_int r.port;
                Printf.sprintf "%.2f" r.pressure;
                Printf.sprintf "%.0f" r.demanded_rate;
                Printf.sprintf "%.0f" r.granted_rate;
                Printf.sprintf "%d/%d" r.accepted r.requests;
              ])
            reports));
    match Gridbw_metrics.Hotspot.hot_spots reports with
    | [] -> print_endline "no hot spots (all ports below pressure 1)"
    | hot -> Format.printf "%d hot spot(s); worst: %a@." (List.length hot)
               Gridbw_metrics.Hotspot.pp (List.hd hot)
  in
  Cmd.v
    (Cmd.info "hotspot" ~doc:"Per-port pressure analysis of a workload trace (section 7).")
    Term.(const run $ trace_t $ heuristic_t $ policy_t $ step_t)

(* --- serve / loadgen commands --- *)

let hostport_conv =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg "expected HOST:PORT")
    | Some i -> (
        let host = String.sub s 0 i in
        let port = String.sub s (i + 1) (String.length s - i - 1) in
        match int_of_string_opt port with
        | Some p when p > 0 && p < 65536 -> Ok (host, p)
        | _ -> Error (`Msg ("bad port: " ^ port)))
  in
  Arg.conv (parse, fun ppf (h, p) -> Format.fprintf ppf "%s:%d" h p)

let transport_of cmd socket tcp =
  match (socket, tcp) with
  | Some path, None -> Daemon.Unix_socket path
  | None, Some (host, port) -> Daemon.Tcp (host, port)
  | _ ->
      Printf.eprintf "%s: exactly one of --socket or --tcp is required\n" cmd;
      exit 2

let socket_t =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket $(docv).")

let tcp_t =
  Arg.(value & opt (some hostport_conv) None
       & info [ "tcp" ] ~docv:"HOST:PORT" ~doc:"TCP endpoint $(docv).")

let serve_cmd =
  let policy_t =
    Arg.(value & opt policy_conv (Policy.Fraction_of_max 0.8)
         & info [ "policy" ] ~docv:"P" ~doc:"minrate or a MaxRate fraction f in [0,1].")
  in
  let store_dir_t =
    Arg.(value & opt (some string) None
         & info [ "store-dir" ] ~docv:"DIR"
             ~doc:"Journal every decision durably into $(docv) before acking it \
                   (write-ack-after-fsync).  If $(docv) already holds a store, recover \
                   it, audit it, and resume serving.")
  in
  let store_kill_t =
    Arg.(value & opt (some int) None
         & info [ "store-kill-after" ] ~docv:"N"
             ~doc:"Crash drill: SIGKILL the daemon mid-append of WAL record $(docv), \
                   leaving a torn record on disk (testing aid).")
  in
  let metrics_port_t =
    Arg.(value & opt (some int) None
         & info [ "metrics-port" ] ~docv:"PORT"
             ~doc:"Serve GET /metrics (Prometheus text exposition) over HTTP/1.0 on \
                   127.0.0.1:$(docv), from the same event loop as the protocol socket.")
  in
  let span_out_t =
    Arg.(value & opt (some string) None
         & info [ "span-out" ] ~docv:"FILE"
             ~doc:"Trace every request as a span record (per-stage latencies, ledger \
                   probes) into $(docv), as length-prefixed binary frames.  trace-report \
                   aggregates the file offline.")
  in
  let flight_t =
    Arg.(value & opt (some string) None
         & info [ "flight-recorder" ] ~docv:"FILE"
             ~doc:"Keep the newest spans in a fixed-size crash-surviving ring file at \
                   $(docv) (one write per span, no fsync).  After a crash, \
                   'gridbw recover --flight $(docv)' dumps the last moments.")
  in
  let run socket tcp policy store_dir store_kill metrics_port span_out flight_recorder =
    let transport = transport_of "serve" socket tcp in
    let store_config = { Store.default_config with kill_after = store_kill } in
    let cfg =
      { (Daemon.default_config ~policy ?store_dir ?metrics_port ?span_out ?flight_recorder
           transport)
        with
        Daemon.store_config }
    in
    match Daemon.create ~log:(fun s -> Printf.eprintf "serve: %s\n%!" s) cfg with
    | Error e ->
        Printf.eprintf "serve: %s\n" e;
        exit 1
    | Ok d ->
        Daemon.install_signal_handlers d;
        Daemon.run d
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the admission daemon: a durable, auditable admission service speaking \
             the versioned JSONL protocol over a Unix or TCP socket.")
    Term.(const run $ socket_t $ tcp_t $ policy_t $ store_dir_t $ store_kill_t $ metrics_port_t
          $ span_out_t $ flight_t)

let loadgen_cmd =
  let conns_t =
    Arg.(value & opt int 4
         & info [ "connections" ] ~docv:"N" ~doc:"Concurrent closed-loop clients.")
  in
  let requests_t =
    Arg.(value & opt int 10_000 & info [ "requests" ] ~docv:"N" ~doc:"Total requests to send.")
  in
  let lg_seed_t =
    Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"SEED" ~doc:"Workload PRNG seed.")
  in
  let mean_ia_t =
    Arg.(value & opt float 0.25
         & info [ "mean-interarrival" ] ~docv:"S" ~doc:"Mean arrival spacing of the drawn workload.")
  in
  let cancel_t =
    Arg.(value & opt int 0
         & info [ "cancel-every" ] ~docv:"N" ~doc:"Cancel every $(docv)th admitted transfer (0 = never).")
  in
  let acks_t =
    Arg.(value & opt (some string) None
         & info [ "acks" ] ~docv:"FILE"
             ~doc:"Journal every received response payload to $(docv), one JSON line each \
                   (verbatim wire bytes) — the kill-drill evidence file.")
  in
  let tolerate_t =
    Arg.(value & flag
         & info [ "tolerate-disconnect" ]
             ~doc:"A dropped connection stops that client quietly instead of failing the run.")
  in
  let shutdown_t =
    Arg.(value & flag
         & info [ "shutdown" ] ~doc:"Send the shutdown verb once the run completes.")
  in
  let json_t =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Machine-readable output: stdout is exactly one JSON object \
                   (p50/p95/p99 latencies included); the human report and provenance move \
                   to stderr.")
  in
  let run socket tcp conns requests seed mean_ia cancel_every acks_path tolerate shutdown json =
    let transport = transport_of "loadgen" socket tcp in
    let acks = Option.map open_out acks_path in
    let cfg =
      Loadgen.default_config ~connections:conns ~requests ~seed ~mean_interarrival:mean_ia
        ~cancel_every ?acks ~tolerate_disconnect:tolerate transport
    in
    let provenance =
      [ Provenance.seed seed; Provenance.int "requests" requests;
        Provenance.int "connections" conns ]
    in
    if json then Printf.eprintf "%s\n%!" (Provenance.line ~cmd:"loadgen" provenance)
    else Provenance.print ~cmd:"loadgen" provenance;
    match Loadgen.run ~log:(fun s -> Printf.eprintf "%s\n%!" s) cfg with
    | Error e ->
        Option.iter close_out acks;
        Printf.eprintf "loadgen: %s\n" e;
        exit 1
    | Ok report ->
        Option.iter close_out acks;
        Option.iter (Printf.eprintf "wrote %s\n%!") acks_path;
        if json then begin
          Format.eprintf "%a@." Loadgen.pp_report report;
          print_endline (Loadgen.report_to_json report)
        end
        else Format.printf "%a@." Loadgen.pp_report report;
        if shutdown then
          match Loadgen.shutdown transport with
          | Ok records -> Printf.eprintf "daemon stopped (%d journal records)\n%!" records
          | Error e ->
              Printf.eprintf "loadgen: shutdown: %s\n" e;
              exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Drive a running admission daemon with a seeded closed-loop workload and \
             report throughput and latency percentiles.")
    Term.(const run $ socket_t $ tcp_t $ conns_t $ requests_t $ lg_seed_t $ mean_ia_t
          $ cancel_t $ acks_t $ tolerate_t $ shutdown_t $ json_t)

let main_cmd =
  Cmd.group
    (Cmd.info "gridbw" ~version:"1.0.0"
       ~doc:"Optimal bandwidth sharing in grid environments (HPDC'06) — reproduction toolkit.")
    [ figure_cmd; table_cmd; all_cmd; workload_cmd; run_cmd; replay_trace_cmd;
      trace_report_cmd; recover_cmd; fuzz_cmd; hotspot_cmd; serve_cmd; loadgen_cmd ]

let () = exit (Cmd.eval main_cmd)
