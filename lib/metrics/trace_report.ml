(* Offline span aggregation.  See trace_report.mli. *)

module Span = Gridbw_obs.Span
module Metrics = Gridbw_obs.Metrics
module Codec = Gridbw_wire.Codec
module Frame = Gridbw_wire.Frame

type t = { spans : Span.t list; skipped : int }

let spans t = t.spans
let skipped t = t.skipped

(* Mixed traces interleave span records with event records (a serve
   trace, a WAL segment fed directly); any frame that is not a span is
   counted and skipped. *)
let of_string content =
  let len = String.length content in
  let rec go acc skipped pos =
    if pos >= len then Ok { spans = List.rev acc; skipped }
    else
      match Frame.decode content ~pos with
      | Codec.Incomplete -> Error "truncated binary record at end of trace"
      | Codec.Corrupt msg -> Error ("corrupt binary record: " ^ msg)
      | Codec.Value ((tag, body), next) -> (
          if tag <> Span.frame_tag then go acc (skipped + 1) next
          else
            match Span.Binary.of_body body with
            | Ok sp -> go (sp :: acc) skipped next
            | Error msg -> Error ("corrupt span record: " ^ msg))
  in
  go [] 0 0

let load path =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let content =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      of_string content

(* --- rendering --- *)

let pp_ns ns =
  if Float.is_nan ns then "-"
  else if ns < 1e3 then Printf.sprintf "%.0fns" ns
  else if ns < 1e6 then Printf.sprintf "%.1fus" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%.2fms" (ns /. 1e6)
  else Printf.sprintf "%.3fs" (ns /. 1e9)

type row = { label : string; count : int; sum : float; p50 : float; p95 : float; p99 : float }

let row_of_hist label h =
  {
    label;
    count = Metrics.hist_count h;
    sum = Metrics.hist_sum h;
    p50 = Metrics.percentile h 0.5;
    p95 = Metrics.percentile h 0.95;
    p99 = Metrics.percentile h 0.99;
  }

let stage_rows spans =
  let reg = Metrics.create () in
  let hist name = Metrics.histogram reg name in
  let stage_h = List.map (fun st -> (st, hist (Span.stage_name st))) Span.all_stages in
  let sum_h = hist "stage-sum" and total_h = hist "end-to-end" in
  List.iter
    (fun sp ->
      List.iter
        (fun (st, h) ->
          let d = Span.duration sp st in
          if d > 0. then Metrics.observe h d)
        stage_h;
      Metrics.observe sum_h (Span.stage_sum sp);
      Metrics.observe total_h (Span.total_ns sp))
    spans;
  ( List.filter_map
      (fun (st, h) ->
        if Metrics.hist_count h = 0 then None else Some (row_of_hist (Span.stage_name st) h))
      stage_h,
    row_of_hist "stage sum" sum_h,
    row_of_hist "end-to-end" total_h )

let slowest spans =
  List.stable_sort (fun a b -> compare (Span.total_ns b) (Span.total_ns a)) spans

let dominant_stage sp =
  List.fold_left
    (fun best st -> match best with
      | Some b when Span.duration sp b >= Span.duration sp st -> best
      | _ -> if Span.duration sp st > 0. then Some st else best)
    None Span.all_stages

let render ?(top = 10) t =
  let b = Buffer.create 1024 in
  let spans = t.spans in
  let n = List.length spans in
  Buffer.add_string b
    (Printf.sprintf "trace report: %d spans (%d other records skipped)\n" n t.skipped);
  if n = 0 then Buffer.contents b
  else begin
    let rows, sum_row, total_row = stage_rows spans in
    let grand = List.fold_left (fun a r -> a +. r.sum) 0. rows in
    Buffer.add_string b
      (Printf.sprintf "\n%-16s %8s %10s %10s %10s %12s %7s\n" "stage" "count" "p50" "p95"
         "p99" "total" "share");
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "%-16s %8d %10s %10s %10s %12s %6.1f%%\n" r.label r.count
             (pp_ns r.p50) (pp_ns r.p95) (pp_ns r.p99) (pp_ns r.sum)
             (if grand > 0. then 100. *. r.sum /. grand else 0.)))
      rows;
    List.iter
      (fun r ->
        Buffer.add_string b
          (Printf.sprintf "%-16s %8d %10s %10s %10s %12s\n" r.label r.count (pp_ns r.p50)
             (pp_ns r.p95) (pp_ns r.p99) (pp_ns r.sum)))
      [ sum_row; total_row ];
    if total_row.p50 > 0. then
      Buffer.add_string b
        (Printf.sprintf "stage-sum p50 coverage: %.1f%% of end-to-end p50\n"
           (100. *. sum_row.p50 /. total_row.p50));
    let top_spans = slowest spans in
    let k = min top (List.length top_spans) in
    Buffer.add_string b (Printf.sprintf "\ntop %d slowest requests:\n" k);
    List.iteri
      (fun i sp ->
        if i < k then begin
          Buffer.add_string b
            (Printf.sprintf "  span %d%s conn=%d total=%s probes=%d" (Span.id sp)
               (match Span.req sp with Some r -> Printf.sprintf " req=%d" r | None -> "")
               (Span.conn sp)
               (pp_ns (Span.total_ns sp))
               (Span.probes sp));
          (match dominant_stage sp with
          | Some st ->
              Buffer.add_string b
                (Printf.sprintf " dominant=%s (%s)" (Span.stage_name st)
                   (pp_ns (Span.duration sp st)))
          | None -> ());
          Buffer.add_char b '\n'
        end)
      top_spans;
    Buffer.contents b
  end
