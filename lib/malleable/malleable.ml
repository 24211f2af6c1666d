module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Rate_profile = Gridbw_alloc.Rate_profile
module Ledger = Gridbw_alloc.Ledger
module Port = Gridbw_alloc.Port
module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event
module Spec = Gridbw_workload.Spec
module Types = Gridbw_core.Types
module Runtime = Gridbw_core.Runtime
module Emit = Gridbw_core.Emit
module Scheduler = Gridbw_core.Scheduler

let admit_span = Obs.span_key "admit"

type config = {
  book_ahead : float;  (** announce (and decide) each request this long before its [ts] *)
  reshape : bool;  (** re-solve pending profiles when an admit would otherwise fail *)
  kappa : float;
      (** compensation limit: profile steps stay within [kappa * min_rate]
          (and [max_rate]); [infinity] removes the bound *)
}

let default = { book_ahead = 0.; reshape = true; kappa = infinity }

let name config =
  match (config.book_ahead > 0., config.reshape) with
  | false, true -> "malleable"
  | false, false -> "malleable(no-reshape)"
  | true, true -> Printf.sprintf "malleable(ba=%g)" config.book_ahead
  | true, false -> Printf.sprintf "malleable(ba=%g,no-reshape)" config.book_ahead

let validate config =
  if config.book_ahead < 0. || not (Float.is_finite config.book_ahead) then
    invalid_arg "Malleable: book_ahead must be non-negative and finite";
  if not (config.kappa >= 1.) then invalid_arg "Malleable: kappa must be >= 1"

(* --- the step-profile solver --- *)

(* The latest admissible end of the last step: a hair inside
   {!Allocation.meets_deadline}'s relative slack, so the few-ulp
   extension needed to close a near-rigid volume bitwise (the constant
   engines book the same overhang as [tau > tf]) stays well within every
   validator's deadline bound. *)
let deadline_limit (r : Request.t) = r.tf +. (1e-10 *. Float.max 1. (Float.abs r.tf))

(* Water-fill [r]'s volume into the ledger's free capacity over
   [\[start, tf)]: walk the merged breakpoint segments of the two ports,
   fill each at the water level — the *smallest* rate [g] with
   [Σ min (g, cap_i)·len_i = volume], where [cap_i] is the segment's free
   capacity (min of both headrooms, clamped to [max_rate]) — and solve
   the final step's rate so the profile's Kahan integral equals [volume]
   exactly.  Spreading the volume at the lowest feasible peak leaves the
   most headroom for everyone after; in particular, whenever a constant
   min-rate reservation fits (the rigid engines' acceptance test), the
   level degenerates to exactly that constant — the dominance argument
   over GREEDY.

   The bitwise-close step: float rates reachable by ulp-stepping the last
   rate give integral values spaced ~1-2 ulps of [volume] apart, so a
   target can fall between two representable sums.  The solver therefore
   walks the last step's end by ulps too (down within the segment, or —
   on the last segment only — past [tf] within the deadline slack,
   guarded by a fits-check over the unmeasured sliver), and as a final
   fallback fills a segment just *under* the target so a later segment
   closes the few-ulp residue with a tiny step on a much finer grid. *)
let solve ?(peak_bound = infinity) ledger (r : Request.t) ~start =
  if not (start < r.tf) then None
  else begin
    let in_port = Port.Ingress r.ingress and out_port = Port.Egress r.egress in
    let inside port = Ledger.breakpoints_over ledger port ~from_:start ~until:r.tf in
    let bounds =
      List.sort_uniq Float.compare ((start :: r.tf :: inside in_port) @ inside out_port)
      |> Array.of_list
    in
    let n = Array.length bounds - 1 in
    let volume = r.volume in
    let limit = deadline_limit r in
    let rate_cap = Float.min r.max_rate (Float.max (Request.min_rate r) peak_bound) in
    let caps =
      Array.init n (fun i ->
          let from_ = bounds.(i) and until = bounds.(i + 1) in
          Float.min rate_cap
            (Float.min
               (Ledger.headroom_over ledger in_port ~from_ ~until)
               (Ledger.headroom_over ledger out_port ~from_ ~until)))
    in
    (* The water level.  Walk segments by ascending cap: a level in
       (cap_{k-1}, cap_k] fills saturated segments at their cap and the
       rest at the level, so the first k where the needed level drops to
       [cap_k] or below wins.  When even cap-filling everything falls
       short (near-rigid float slop), the level is [infinity] — fill at
       cap and let the closing walks make up the last ulps. *)
    let level =
      let idx = Array.init n (fun i -> i) in
      Array.sort (fun a b -> Float.compare caps.(a) caps.(b)) idx;
      let total_len =
        Array.fold_left
          (fun acc i -> if caps.(i) > 0. then acc +. (bounds.(i + 1) -. bounds.(i)) else acc)
          0. idx
      in
      let rec scan k below rest_len =
        if k >= n || not (rest_len > 0.) then infinity
        else begin
          let i = idx.(k) in
          if caps.(i) > 0. then begin
            let g = (volume -. below) /. rest_len in
            if g <= caps.(i) then (if g > 0. then g else caps.(i))
            else
              let len = bounds.(i + 1) -. bounds.(i) in
              scan (k + 1) (below +. (caps.(i) *. len)) (rest_len -. len)
          end
          else scan (k + 1) below rest_len
        end
      in
      scan 0 0. total_len
    in
    (* One Kahan step on the running (sum, comp) state — the exact
       operation sequence of {!Rate_profile.integral}, so closing against
       this predicts the final profile's integral bit-for-bit. *)
    let final ~sum ~comp g ~from_ u = sum +. ((g *. (u -. from_)) -. comp) in
    let push ~sum ~comp contrib =
      let y = contrib -. comp in
      let sum' = sum +. y in
      ((sum' -. sum) -. y, sum')
    in
    (* Ulp-walk the closing rate from the residual-based guess; returns
       the exact-closing rate if one is representable at this segment
       end, plus the best under-target rate seen (the partial-fill
       fallback). *)
    let rate_walk ~sum ~comp ~from_ ~cap u =
      let len = u -. from_ in
      if not (len > 0.) then (None, None)
      else begin
        let g0 =
          let g = (volume -. sum) /. len in
          if Float.is_finite g && g > 0. then Float.min g cap else cap
        in
        let best = ref None in
        let note g = match !best with Some b when b >= g -> () | _ -> best := Some g in
        let rec walk g steps up down =
          if steps > 1024 || not (g > 0.) || g > cap then None
          else
            let v = final ~sum ~comp g ~from_ u in
            if v = volume then Some g
            else if v < volume then begin
              note g;
              if down then None else walk (Float.succ g) (steps + 1) true down
            end
            else if up then None
            else walk (Float.pred g) (steps + 1) up true
        in
        (walk g0 0 false false, !best)
      end
    in
    let close_down ~sum ~comp ~from_ ~cap until =
      let rec down u k =
        if k > 8 || not (u > from_) then None
        else
          match rate_walk ~sum ~comp ~from_ ~cap u with
          | Some g, _ -> Some (g, u)
          | None, _ -> down (Float.pred u) (k + 1)
      in
      down until 0
    in
    (* Last-segment only: extend the end past [tf] by ulps, inside the
       deadline slack.  The extension sliver was not part of the headroom
       measurement, so a fits-check guards it against a reservation that
       begins exactly there. *)
    let close_up ~sum ~comp ~from_ ~cap until =
      let rec up u k =
        if k > 64 || u > limit then None
        else
          match rate_walk ~sum ~comp ~from_ ~cap u with
          | Some g, _
            when Ledger.fits_interval ledger ~ingress:r.ingress ~egress:r.egress ~bw:g
                   ~from_:until ~until:u -> Some (g, u)
          | _ -> up (Float.succ u) (k + 1)
      in
      up (Float.succ until) 0
    in
    let seg from_ until rate = { Rate_profile.from_; until; rate } in
    let rec fill acc sum comp i =
      if i >= n then None
      else begin
        let from_ = bounds.(i) and until = bounds.(i + 1) in
        let cap = caps.(i) in
        let pour = Float.min level cap in
        if not (cap > 0.) then fill acc sum comp (i + 1)
        else if i = n - 1 then
          (* the profile must close here or nowhere *)
          let closed =
            match close_down ~sum ~comp ~from_ ~cap until with
            | Some _ as c -> c
            | None -> close_up ~sum ~comp ~from_ ~cap until
          in
          match closed with
          | Some (g, u) -> Some (Rate_profile.make (List.rev (seg from_ u g :: acc)))
          | None -> None
        else begin
          let v_full = final ~sum ~comp pour ~from_ until in
          if v_full < volume then begin
            let comp', sum' = push ~sum ~comp (pour *. (until -. from_)) in
            fill (seg from_ until pour :: acc) sum' comp' (i + 1)
          end
          else
            (* the level pour reaches the volume inside this segment; the
               closing rate may exceed the level up to the segment cap *)
            match close_down ~sum ~comp ~from_ ~cap until with
            | Some (g, u) -> Some (Rate_profile.make (List.rev (seg from_ u g :: acc)))
            | None -> (
                (* representable-grid miss: fill just under the target and
                   let a later segment close the few-ulp residue *)
                match snd (rate_walk ~sum ~comp ~from_ ~cap until) with
                | None -> fill acc sum comp (i + 1)
                | Some g ->
                    let comp', sum' = push ~sum ~comp (g *. (until -. from_)) in
                    fill (seg from_ until g :: acc) sum' comp' (i + 1))
        end
      end
    in
    fill [] 0. 0. 0
  end

let reserve_profile ledger (q : Request.t) p =
  List.iter
    (fun (s : Rate_profile.seg) ->
      Ledger.reserve_interval ledger ~ingress:q.ingress ~egress:q.egress ~bw:s.rate
        ~from_:s.from_ ~until:s.until)
    (Rate_profile.segments p)

let release_profile ledger (q : Request.t) p =
  List.iter
    (fun (s : Rate_profile.seg) ->
      Ledger.release_interval ledger ~ingress:q.ingress ~egress:q.egress ~bw:s.rate
        ~from_:s.from_ ~until:s.until)
    (Rate_profile.segments p)

(* --- admission-time reshaping --- *)

let edf_compare (a : Request.t) (b : Request.t) =
  match Float.compare a.tf b.tf with 0 -> Int.compare a.id b.id | c -> c

(* The admit of [r] failed: release every admitted-but-not-yet-started
   profile on a scratch copy of the ledger and water-fill all of them
   plus [r] back in EDF order.  All-or-nothing: only if every transfer
   (including [r]) closes exactly does the scratch become the live
   ledger; otherwise it is dropped and the original state is untouched —
   the rollback is free because nothing was mutated in place. *)
let try_reshape ~kappa ledger admitted rev_order (r : Request.t) ~now =
  let pending =
    List.filter_map
      (fun id ->
        let a = Hashtbl.find admitted id in
        match a.Allocation.profile with
        | Some p when Rate_profile.start p > now -> Some (a.Allocation.request, p)
        | _ -> None)
      (List.rev rev_order)
  in
  if pending = [] then None
  else begin
    let scratch = Ledger.copy !ledger in
    List.iter (fun (q, p) -> release_profile scratch q p) pending;
    let items = List.sort edf_compare (r :: List.map fst pending) in
    let solved =
      List.fold_left
        (fun acc (q : Request.t) ->
          match acc with
          | None -> None
          | Some pairs -> (
              match
                solve ~peak_bound:(kappa *. Request.min_rate q) scratch q
                  ~start:(Float.max now q.ts)
              with
              | None -> None
              | Some p ->
                  reserve_profile scratch q p;
                  Some ((q, p) :: pairs)))
        (Some []) items
    in
    match solved with
    | None -> None
    | Some pairs ->
        ledger := scratch;
        let pairs = List.rev pairs (* EDF order *) in
        let new_profile = ref None in
        let revised =
          List.filter_map
            (fun ((q : Request.t), p) ->
              if q.id = r.id then begin
                new_profile := Some p;
                None
              end
              else Some (q.id, p))
            pairs
        in
        Some (Option.get !new_profile, Array.of_list revised)
  end

(* --- trace emission --- *)

(* The profiled twin of {!Emit.emit_decision}'s accept arm: same
   counters, but the trace record is a Reshape carrying the step
   schedule (and any pending-profile revisions) instead of an Accept. *)
let emit_reshape obs ~time (r : Request.t) profile revised =
  if obs.Obs.enabled then begin
    Obs.count obs "admit_requests_total";
    Obs.count obs "admit_accepted_total";
    if Array.length revised > 0 then Obs.count obs "reshape_commits_total";
    Obs.event obs (fun () ->
        Event.Reshape
          {
            time;
            id = r.id;
            ingress = r.ingress;
            egress = r.egress;
            volume = r.volume;
            ts = r.ts;
            tf = r.tf;
            max_rate = r.max_rate;
            profile = Rate_profile.to_triples profile;
            revised = Array.map (fun (id, p) -> (id, Rate_profile.to_triples p)) revised;
            shard = None;
          })
  end

(* The rejecting port and its spare bandwidth over the request window —
   the ledger-based analogue of {!Emit.spike_port}, traced-reject only. *)
let blocked_port obs ledger (r : Request.t) ~start =
  if (not (Obs.tracing obs)) || start >= r.tf then None
  else begin
    let hi = Ledger.headroom_over ledger (Port.Ingress r.ingress) ~from_:start ~until:r.tf in
    let he = Ledger.headroom_over ledger (Port.Egress r.egress) ~from_:start ~until:r.tf in
    if hi <= he then Some ((Event.Ingress, r.ingress), hi)
    else Some ((Event.Egress, r.egress), he)
  end

(* --- the engine --- *)

let run config ?(ctx = Runtime.default) fabric requests =
  validate config;
  let obs = ctx.Runtime.obs in
  Request.check_routes "Malleable" fabric requests;
  let ledger = ref (Ledger.create fabric) in
  let seqs = if Obs.tracing obs then Emit.seq_table requests else Hashtbl.create 1 in
  let admitted : (int, Allocation.t) Hashtbl.t = Hashtbl.create 64 in
  let rev_order = ref [] in
  let rev_rejected = ref [] in
  let order =
    List.map (fun (r : Request.t) -> (r.ts -. config.book_ahead, r)) requests
    |> List.sort (fun (ta, (a : Request.t)) (tb, (b : Request.t)) ->
           match Float.compare ta tb with 0 -> Int.compare a.id b.id | c -> c)
  in
  let admit now (r : Request.t) profile revised =
    Array.iter
      (fun (rid, p) ->
        let old = Hashtbl.find admitted rid in
        Hashtbl.replace admitted rid
          (Allocation.of_profile ~request:old.Allocation.request p))
      revised;
    Hashtbl.replace admitted r.id (Allocation.of_profile ~request:r profile);
    rev_order := r.id :: !rev_order;
    emit_reshape obs ~time:now r profile revised
  in
  let decide now (r : Request.t) =
    let start = Float.max now r.ts in
    match solve ~peak_bound:(config.kappa *. Request.min_rate r) !ledger r ~start with
    | Some profile ->
        reserve_profile !ledger r profile;
        admit now r profile [||]
    | None -> (
        let reshaped =
          if config.reshape then
            try_reshape ~kappa:config.kappa ledger admitted !rev_order r ~now
          else None
        in
        match reshaped with
        | Some (profile, revised) -> admit now r profile revised
        | None ->
            let blocked = blocked_port obs !ledger r ~start in
            rev_rejected := (r, Types.Port_saturated) :: !rev_rejected;
            Emit.emit_decision obs ~time:now ?blocked r
              (Types.Rejected Types.Port_saturated))
  in
  List.iter
    (fun (now, (r : Request.t)) ->
      if Obs.tracing obs then Emit.emit_arrival obs seqs ~time:now r;
      Obs.span obs admit_span (fun () -> decide now r))
    order;
  {
    Types.all = requests;
    accepted = List.rev_map (fun id -> Hashtbl.find admitted id) !rev_order |> List.rev;
    rejected = List.rev !rev_rejected;
  }

let scheduler config =
  Scheduler.make ~name:(name config) (fun ?ctx spec requests ->
      run config ?ctx spec.Spec.fabric requests)

let engines () = [ scheduler default; scheduler { default with book_ahead = 7. } ]
