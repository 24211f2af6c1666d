module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Profile_ref = Gridbw_alloc.Profile_ref
module Rate_profile = Gridbw_alloc.Rate_profile

type violation =
  | Port_overload of {
      side : Hotspot.side;
      port : int;
      at : float;
      usage : float;
      capacity : float;
    }
  | Deadline_miss of { request_id : int; tau : float; tf : float }
  | Rate_above_max of { request_id : int; bw : float; max_rate : float }
  | Start_before_request of { request_id : int; sigma : float; ts : float }
  | Bad_route of { request_id : int; ingress : int; egress : int }
  | Duplicate_request of { request_id : int }
  | Volume_mismatch of { request_id : int; integral : float; volume : float }

let le_cap used cap = used <= cap *. (1. +. 1e-9)

(* Worst instant of a profile against a capacity: walk the level changes. *)
let worst_excess profile capacity =
  let best = ref None in
  let level = ref 0.0 in
  List.iter
    (fun bp ->
      level := Profile_ref.usage_at profile bp;
      if not (le_cap !level capacity) then
        match !best with
        | Some (_, u) when u >= !level -> ()
        | _ -> best := Some (bp, !level))
    (Profile_ref.breakpoints profile);
  !best

let check fabric allocations =
  let violations = ref [] in
  let add v = violations := v :: !violations in
  let seen = Hashtbl.create 64 in
  let in_profiles = Array.make (Fabric.ingress_count fabric) Profile_ref.empty in
  let out_profiles = Array.make (Fabric.egress_count fabric) Profile_ref.empty in
  List.iter
    (fun (a : Allocation.t) ->
      let r = a.Allocation.request in
      if Hashtbl.mem seen r.Request.id then add (Duplicate_request { request_id = r.Request.id })
      else Hashtbl.replace seen r.Request.id ();
      if not (Request.routed_on r fabric) then
        add (Bad_route { request_id = r.Request.id; ingress = r.Request.ingress;
                         egress = r.Request.egress })
      else begin
        (* A profiled (malleable) allocation loads its ports step by step;
           a constant one loads them at [bw] over [\[sigma, tau)]. *)
        let segments =
          match a.Allocation.profile with
          | Some p ->
              List.map
                (fun (s : Rate_profile.seg) -> (s.Rate_profile.from_, s.Rate_profile.until, s.Rate_profile.rate))
                (Rate_profile.segments p)
          | None -> [ (a.Allocation.sigma, a.Allocation.tau, a.Allocation.bw) ]
        in
        List.iter
          (fun (from_, until, rate) ->
            in_profiles.(r.Request.ingress) <-
              Profile_ref.add in_profiles.(r.Request.ingress) ~from_ ~until rate;
            out_profiles.(r.Request.egress) <-
              Profile_ref.add out_profiles.(r.Request.egress) ~from_ ~until rate)
          segments
      end;
      if not (Allocation.meets_deadline a) then
        add (Deadline_miss { request_id = r.Request.id; tau = a.Allocation.tau; tf = r.Request.tf });
      if not (Allocation.within_rate_bounds a) then
        add (Rate_above_max
               { request_id = r.Request.id; bw = a.Allocation.bw; max_rate = r.Request.max_rate });
      (match a.Allocation.profile with
      | None -> ()
      | Some p ->
          (* The malleable contract is exact: peak within the host cap
             (with the ledger's slack) and the Kahan integral equal to
             the request volume bit-for-bit. *)
          let peak = Rate_profile.peak p in
          if not (le_cap peak r.Request.max_rate) then
            add (Rate_above_max { request_id = r.Request.id; bw = peak; max_rate = r.Request.max_rate });
          let integral = Rate_profile.integral p in
          if integral <> r.Request.volume then
            add (Volume_mismatch { request_id = r.Request.id; integral; volume = r.Request.volume }));
      if a.Allocation.sigma < r.Request.ts -. 1e-12 then
        add (Start_before_request
               { request_id = r.Request.id; sigma = a.Allocation.sigma; ts = r.Request.ts }))
    allocations;
  Array.iteri
    (fun i p ->
      match worst_excess p (Fabric.ingress_capacity fabric i) with
      | Some (at, usage) ->
          add (Port_overload { side = Hotspot.Ingress; port = i; at; usage;
                               capacity = Fabric.ingress_capacity fabric i })
      | None -> ())
    in_profiles;
  Array.iteri
    (fun e p ->
      match worst_excess p (Fabric.egress_capacity fabric e) with
      | Some (at, usage) ->
          add (Port_overload { side = Hotspot.Egress; port = e; at; usage;
                               capacity = Fabric.egress_capacity fabric e })
      | None -> ())
    out_profiles;
  List.rev !violations

let is_valid fabric allocations = check fabric allocations = []

let pp_violation ppf = function
  | Port_overload { side; port; at; usage; capacity } ->
      Format.fprintf ppf "%s port %d overloaded at t=%.3f: %.3f > %.3f MB/s"
        (match side with Hotspot.Ingress -> "ingress" | Hotspot.Egress -> "egress")
        port at usage capacity
  | Deadline_miss { request_id; tau; tf } ->
      Format.fprintf ppf "request %d finishes at %.3f, after its deadline %.3f" request_id tau tf
  | Rate_above_max { request_id; bw; max_rate } ->
      Format.fprintf ppf "request %d granted %.3f MB/s above its host cap %.3f" request_id bw
        max_rate
  | Start_before_request { request_id; sigma; ts } ->
      Format.fprintf ppf "request %d starts at %.3f before its request time %.3f" request_id sigma
        ts
  | Bad_route { request_id; ingress; egress } ->
      Format.fprintf ppf "request %d routed on unknown ports (%d -> %d)" request_id ingress egress
  | Duplicate_request { request_id } ->
      Format.fprintf ppf "request %d allocated more than once" request_id
  | Volume_mismatch { request_id; integral; volume } ->
      Format.fprintf ppf "request %d profile integrates to %.17g, volume is %.17g" request_id
        integral volume

let report fabric allocations =
  match check fabric allocations with
  | [] -> "schedule is feasible"
  | vs ->
      let buf = Buffer.create 256 in
      Buffer.add_string buf (Printf.sprintf "%d violation(s):\n" (List.length vs));
      List.iter
        (fun v -> Buffer.add_string buf (Format.asprintf "  - %a\n" pp_violation v))
        vs;
      Buffer.contents buf
