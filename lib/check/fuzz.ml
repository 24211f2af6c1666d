module Rng = Gridbw_prng.Rng
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Trace = Gridbw_workload.Trace
module Spec = Gridbw_workload.Spec
module Scheduler = Gridbw_core.Scheduler
module Json = Gridbw_obs.Json
module Obs = Gridbw_obs.Obs
module Sink = Gridbw_obs.Sink
module Event = Gridbw_obs.Event

type failure = { scenario : Scenario.t; findings : Harness.finding list }
type outcome = { scenarios : int; failures : failure list }

(* Scenario seeds march in a fixed odd stride from the base seed, so any
   scenario index reproduces without replaying the ones before it. *)
let scenario_seed base i = Int64.add base (Int64.mul 1000003L (Int64.of_int (i + 1)))

let run ?engines ?(families = Scenario.families) ?(min_size = 5) ?(max_size = 45)
    ?(log = fun _ -> ()) ~budget ~seed () =
  let failures = ref [] in
  let nf = max 1 (List.length families) in
  for i = 0 to budget - 1 do
    let family = List.nth families (i mod nf) in
    let sseed = scenario_seed seed i in
    let span = Int64.of_int (max 1 (max_size - min_size + 1)) in
    let size = min_size + Int64.to_int (Int64.rem (Int64.logand sseed 0x7FFFFFFFFFFFL) span) in
    let sc = Scenario.generate ~family ~seed:sseed ~size in
    match Harness.check ?engines sc with
    | [] -> ()
    | findings ->
        log
          (Format.asprintf "scenario %d (%a): %d finding(s); minimizing" i Scenario.pp sc
             (List.length findings));
        (* Shrink against the engine that broke when it is identifiable
           and not script-bound (a fault engine captures the original
           script, so shrinking under it would be misleading). *)
        let narrowed =
          match findings with
          | { Harness.engine = name; _ } :: _ when not (String.starts_with ~prefix:"faulty-" name)
            -> (
              let pool = match engines with Some es -> es | None -> Harness.engines_for sc in
              match Scheduler.find pool name with Some e -> Some [ e ] | None -> engines)
          | _ -> engines
        in
        let fails s = Harness.check ?engines:narrowed s <> [] in
        let minimized = Shrink.minimize ~fails sc in
        let final = Harness.check ?engines:narrowed minimized in
        failures := { scenario = minimized; findings = final } :: !failures
  done;
  { scenarios = budget; failures = List.rev !failures }

(* --- counterexample bundles --- *)

let rec mkdir_p dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let inner_of ~prefix s =
  if String.starts_with ~prefix s && String.ends_with ~suffix:")" s then
    Some (String.sub s (String.length prefix) (String.length s - String.length prefix - 1))
  else None

let replay_hint name =
  let base h = Printf.sprintf "gridbw run --trace workload.csv --heuristic %s" h in
  let policy_arg p =
    if p = "minrate" then Some "minrate"
    else if String.starts_with ~prefix:"f=" p then
      Some (String.sub p 2 (String.length p - 2))
    else None
  in
  (* "malleable(ba=7,no-reshape)" → the flag spelling of each option. *)
  let malleable_args inner =
    List.fold_left
      (fun acc opt ->
        match acc with
        | None -> None
        | Some flags ->
            if opt = "no-reshape" then Some (flags ^ " --no-reshape")
            else if String.starts_with ~prefix:"ba=" opt then
              Some (flags ^ " --book-ahead " ^ String.sub opt 3 (String.length opt - 3))
            else None)
      (Some "") (String.split_on_char ',' inner)
  in
  match String.split_on_char '/' name with
  | [ "malleable" ] -> Some (base "malleable")
  | [ head ] when String.starts_with ~prefix:"malleable(" head -> (
      match inner_of ~prefix:"malleable(" head with
      | None -> None
      | Some inner -> Option.map (fun flags -> base "malleable" ^ flags) (malleable_args inner))
  | [ "fcfs" ] -> Some (base "fcfs")
  | [ "fifo-blocking" ] -> Some (base "fifo")
  | [ "cumulated-slots" ] -> Some (base "cumulated")
  | [ "minbw-slots" ] -> Some (base "minbw")
  | [ "minvol-slots" ] -> Some (base "minvol")
  | [ head; pol ] -> (
      match policy_arg pol with
      | None -> None
      | Some p ->
          if head = "greedy" then Some (Printf.sprintf "%s --policy %s" (base "greedy") p)
          else (
            match (inner_of ~prefix:"window(" head, inner_of ~prefix:"window-deferred(" head) with
            | Some step, _ ->
                Some (Printf.sprintf "%s --step %s --policy %s" (base "window") step p)
            | None, Some step ->
                Some (Printf.sprintf "%s --step %s --policy %s" (base "window-deferred") step p)
            | None, None -> None))
  | _ -> None

(* The bundle's trace opens with one Capacity event per port: the trace
   then carries its own fabric and [gridbw replay-trace] rebuilds the
   exact summary without assuming the paper topology. *)
let write_events path (sc : Scenario.t) sched =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let obs = Obs.create ~sink:(Sink.binary oc) () in
      let t0 =
        List.fold_left (fun acc (r : Request.t) -> Float.min acc r.Request.ts) 0.0
          sc.Scenario.requests
      in
      let fabric = sc.Scenario.fabric in
      for i = 0 to Fabric.ingress_count fabric - 1 do
        Obs.emit obs
          (Event.Capacity
             { time = t0; side = Event.Ingress; port = i;
               capacity = Fabric.ingress_capacity fabric i })
      done;
      for e = 0 to Fabric.egress_count fabric - 1 do
        Obs.emit obs
          (Event.Capacity
             { time = t0; side = Event.Egress; port = e;
               capacity = Fabric.egress_capacity fabric e })
      done;
      ignore (Scheduler.run ~ctx:(Gridbw_core.Runtime.make ~obs ()) sched (Spec.for_replay fabric) sc.Scenario.requests);
      Obs.flush obs)

let write_file path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let write_bundle ?engines ~dir ~index failure =
  let sc = failure.scenario in
  let case = Filename.concat dir (Printf.sprintf "case-%d" index) in
  mkdir_p case;
  Trace.to_file (Filename.concat case "workload.csv") sc.Scenario.requests;
  let engine_name =
    match failure.findings with f :: _ -> f.Harness.engine | [] -> "unknown"
  in
  let pool = Option.value engines ~default:[] @ Harness.engines_for sc in
  let traced =
    sc.Scenario.faults = []
    &&
    match Scheduler.find pool engine_name with
    | Some sched ->
        write_events (Filename.concat case "events.bin") sc sched;
        true
    | None -> false
  in
  let caps count cap = Json.List (List.init count (fun i -> Json.Num (cap i))) in
  let replay =
    (if traced then [ ("replay_trace", Json.Str "gridbw replay-trace events.bin") ] else [])
    @
    match replay_hint engine_name with
    | Some cmd -> [ ("run", Json.Str (cmd ^ "  # note: run uses the paper fabric, not meta.fabric") ) ]
    | None -> []
  in
  let meta =
    Json.Obj
      [ ("family", Json.Str (Scenario.family_name sc.Scenario.family));
        ("seed", Json.Str (Int64.to_string sc.Scenario.seed));
        ("size", Json.Num (float_of_int sc.Scenario.size));
        ("engine", Json.Str engine_name);
        ("findings",
         Json.List
           (List.map
              (fun (f : Harness.finding) ->
                Json.Obj
                  [ ("engine", Json.Str f.Harness.engine); ("check", Json.Str f.Harness.check);
                    ("detail", Json.Str f.Harness.detail) ])
              failure.findings));
        ("fabric",
         Json.Obj
           [ ("ingress",
              caps (Fabric.ingress_count sc.Scenario.fabric)
                (Fabric.ingress_capacity sc.Scenario.fabric));
             ("egress",
              caps (Fabric.egress_count sc.Scenario.fabric)
                (Fabric.egress_capacity sc.Scenario.fabric)) ]);
        ("faults", Scenario.faults_to_json sc.Scenario.faults);
        ("replay", Json.Obj replay) ]
  in
  write_file (Filename.concat case "meta.json") (Json.to_string meta ^ "\n");
  case
