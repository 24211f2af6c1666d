(* Nightly data-grid replication: every site pushes the day's datasets to
   the others inside a fixed maintenance window.  Rigid requests (the
   window is the contract), so this is the section 4 regime: compare FIFO
   against the three time-window-decomposition heuristics.

     dune exec examples/replication.exe *)

module Rng = Gridbw_prng.Rng
module Dist = Gridbw_prng.Dist
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Rigid = Gridbw_core.Rigid
module Types = Gridbw_core.Types
module Summary = Gridbw_metrics.Summary
module Table = Gridbw_report.Table

let sites = 6
let port_capacity = 1000.0 (* MB/s *)
let night = 8. *. 3600.0 (* the 8-hour maintenance window *)

(* Each site replicates ~160 datasets to random peers; a dataset is 1-80 GB
   and its transfer window is a random slice of the night sized for a
   50-500 MB/s transfer. *)
let build_requests rng =
  let next_id = ref 0 in
  List.concat_map
    (fun source ->
      List.init 160 (fun _ ->
          let destination =
            let d = Rng.int rng (sites - 1) in
            if d >= source then d + 1 else d
          in
          let volume = Rng.float_in rng 1_000. 80_000. in
          let rate = Rng.float_in rng 50. 500. in
          let duration = volume /. rate in
          let ts = Rng.float_in rng 0. (night -. duration) in
          let id = !next_id in
          incr next_id;
          Request.make_rigid ~id ~ingress:source ~egress:destination ~bw:rate ~ts
            ~tf:(ts +. duration)))
    (List.init sites Fun.id)

let () =
  let fabric = Fabric.uniform ~ingress_count:sites ~egress_count:sites ~capacity:port_capacity in
  let rng = Rng.create ~seed:2006L () in
  let requests = build_requests rng in
  Format.printf "replicating %d datasets between %d sites over an 8-hour night@.@."
    (List.length requests) sites;
  let rows =
    List.map
      (fun (name, kind) ->
        let result = Rigid.run kind fabric requests in
        let s = Summary.compute fabric ~all:requests ~accepted:result.Types.accepted in
        assert (Gridbw_metrics.Validate.is_valid fabric result.Types.accepted);
        [
          name;
          string_of_int s.Summary.accepted;
          Printf.sprintf "%.1f%%" (100. *. s.Summary.accept_rate);
          Printf.sprintf "%.1f%%" (100. *. s.Summary.utilization);
          Printf.sprintf "%.1f%%" (100. *. s.Summary.volume_accept_rate);
        ])
      [
        ("FIFO", `Fcfs);
        ("CUMULATED-SLOTS", `Slots Rigid.Cumulated);
        ("MINBW-SLOTS", `Slots Rigid.Min_bw);
        ("MINVOL-SLOTS", `Slots Rigid.Min_vol);
      ]
  in
  Table.print
    (Table.make ~headers:[ "heuristic"; "accepted"; "accept rate"; "utilization"; "volume" ] rows)
