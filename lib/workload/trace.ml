module Request = Gridbw_request.Request

let header = "id,ingress,egress,volume_mb,ts_s,tf_s,max_rate_mbps"

let line_of (r : Request.t) =
  Printf.sprintf "%d,%d,%d,%.17g,%.17g,%.17g,%.17g" r.id r.ingress r.egress r.volume r.ts r.tf
    r.max_rate

let to_string requests =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf header;
  Buffer.add_char buf '\n';
  List.iter
    (fun r ->
      Buffer.add_string buf (line_of r);
      Buffer.add_char buf '\n')
    requests;
  Buffer.contents buf

let to_file path requests =
  Out_channel.with_open_text path (fun oc -> output_string oc (to_string requests))

let parse_line lineno line =
  match String.split_on_char ',' (String.trim line) with
  | [ id; ingress; egress; volume; ts; tf; max_rate ] -> (
      try
        Request.make ~id:(int_of_string id) ~ingress:(int_of_string ingress)
          ~egress:(int_of_string egress) ~volume:(float_of_string volume)
          ~ts:(float_of_string ts) ~tf:(float_of_string tf) ~max_rate:(float_of_string max_rate)
      with Invalid_argument msg | Failure msg ->
        failwith (Printf.sprintf "Trace: line %d: %s" lineno msg))
  | _ -> failwith (Printf.sprintf "Trace: line %d: expected 7 comma-separated fields" lineno)

(* Every engine keys its decisions by id, so a repeated id is refused
   here, naming both lines, rather than deep inside a run. *)
let of_string s =
  let lines = String.split_on_char '\n' s in
  let body, start =
    match lines with
    | first :: rest when String.trim first = header -> (rest, 2)
    | _ -> (lines, 1)
  in
  let seen = Hashtbl.create 64 in
  List.mapi (fun i l -> (start + i, l)) body
  |> List.filter_map (fun (lineno, l) ->
         if String.trim l = "" then None
         else begin
           let r = parse_line lineno l in
           (match Hashtbl.find_opt seen r.Request.id with
           | Some first ->
               failwith
                 (Printf.sprintf "Trace: line %d: id %d repeats line %d" lineno r.Request.id first)
           | None -> Hashtbl.add seen r.Request.id lineno);
           Some r
         end)

let of_file path = of_string (In_channel.with_open_text path In_channel.input_all)
