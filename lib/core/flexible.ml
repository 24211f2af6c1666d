module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Ledger = Gridbw_alloc.Ledger
module Port = Gridbw_alloc.Port
module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event

let pack_span = Obs.span_key "pack_batch"

let arrival_compare (a : Request.t) (b : Request.t) =
  match Float.compare a.ts b.ts with
  | 0 -> (
      match Float.compare (Request.min_rate a) (Request.min_rate b) with
      | 0 -> Int.compare a.id b.id
      | c -> c)
  | c -> c

(* Generated and journaled workloads already arrive in this order, so
   sortedness is checked in O(n) first and the sort skipped when it would
   be a no-op. *)
let arrival_order requests =
  let rec sorted = function
    | a :: (b :: _ as rest) -> arrival_compare a b <= 0 && sorted rest
    | [] | [ _ ] -> true
  in
  if sorted requests then requests else List.sort arrival_compare requests

let collect all decisions =
  let accepted = ref [] and rejected = ref [] in
  List.iter
    (fun (r, d) ->
      match d with
      | Types.Accepted a -> accepted := a :: !accepted
      | Types.Rejected reason -> rejected := (r, reason) :: !rejected)
    decisions;
  { Types.all; accepted = List.rev !accepted; rejected = List.rev !rejected }

(* GREEDY, fresh or resumed.  A [journal] is the surviving event history
   of an interrupted run of the same workload: it is replayed into the
   controller ({!Online.replay}), then the requests it holds no decision
   for are processed exactly as the uninterrupted run would have.
   Because GREEDY journals decisions in its processing order, a journal
   prefix is "the same run stopped after k decisions", so the resumed
   decisions are bit-identical.  The result's [accepted] is the full run
   (journaled ++ resumed, decision order); [rejected] only covers the
   resumed decisions.  A request whose arrival was journaled but whose
   decision was lost must not arrive twice in the journal. *)
let greedy ?(ctx = Runtime.default) ?journal fabric policy requests =
  let obs = ctx.Runtime.obs in
  Request.check_routes "Flexible" fabric requests;
  Policy.validate policy;
  let ctl = Online.create fabric in
  let seqs = if Obs.tracing obs then Emit.seq_table requests else Hashtbl.create 1 in
  let accepted = ref [] and rejected = ref [] in
  let decide ~arrive (r : Request.t) =
    if arrive && Obs.tracing obs then Emit.emit_arrival obs seqs r;
    match Online.try_admit ~ctx ctl policy r ~at:r.ts with
    | Types.Accepted a -> accepted := a :: !accepted
    | Types.Rejected reason -> rejected := (r, reason) :: !rejected
  in
  let booked =
    match journal with
    | None ->
        List.iter (decide ~arrive:true) (arrival_order requests);
        []
    | Some events ->
        (* [true]: decided; [false]: arrived only. *)
        let seen = Hashtbl.create 1024 in
        let booked =
          List.filter_map
            (fun ev ->
              (match ev with
              | Event.Arrival { id; _ } -> Hashtbl.replace seen id false
              | Event.Accept { id; _ } | Event.Reject { id; _ } -> Hashtbl.replace seen id true
              | _ -> ());
              Online.replay ctl ev)
            events
        in
        List.iter
          (fun (r : Request.t) ->
            match Hashtbl.find_opt seen r.id with
            | Some true -> ()
            | arrived -> decide ~arrive:(arrived = None) r)
          (arrival_order requests);
        booked
  in
  { Types.all = requests; accepted = booked @ List.rev !accepted; rejected = List.rev !rejected }

(* Group requests by the [step]-interval their arrival falls into, in
   interval order, each batch in arrival order.  A backward sweep over
   consecutive runs of {!arrival_order}: arrival order makes the interval
   keys non-decreasing, so no per-interval table is needed. *)
let batches ~step requests =
  let arr = Array.of_list (arrival_order requests) in
  let interval (r : Request.t) = int_of_float (Float.floor (r.ts /. step)) in
  let res = ref [] in
  let i = ref (Array.length arr - 1) in
  while !i >= 0 do
    let k = interval arr.(!i) in
    let batch = ref [] in
    while !i >= 0 && interval arr.(!i) = k do
      batch := arr.(!i) :: !batch;
      decr i
    done;
    res := (k, !batch) :: !res
  done;
  !res

(* One WINDOW batch against a shared ledger — Algorithm 3's inner loop.
   Exposed so the fault subsystem can re-pack residual requests with the
   exact same kernel; capacities are read from the ledger's current
   fabric, which may have been revised mid-run.

   [now] stamps the batch's trace events (the batch-boundary decision
   instant); it defaults to the latest arrival in the batch. *)
let pack_batch ?(obs = Obs.disabled) ?now policy ledger ~decide batch =
  let fabric = Ledger.fabric ledger in
  let now =
    match now with
    | Some t -> t
    | None -> List.fold_left (fun acc (r : Request.t) -> Float.max acc r.ts) neg_infinity batch
  in
  let last_probes = ref (Ledger.probe_count ledger) in
  let record ?blocked r d =
    (if obs.Obs.enabled then begin
       let p = Ledger.probe_count ledger in
       Obs.observe obs "ledger_probes_per_decision" (float_of_int (p - !last_probes));
       last_probes := p
     end);
    Emit.emit_decision obs ~time:now ?blocked r d;
    decide r d
  in
  Obs.span obs pack_span @@ fun () ->
  match batch with
  | [] -> ()
  | first :: _ ->
  (* Candidate state lives in parallel flat arrays — floats unboxed, ids
     and liveness immediate — so the min-cost scan, the post-accept
     refresh, and the cut sweep plain array cells instead of chasing
     per-candidate records.  [use_in]/[use_out] cache the port usage at
     the candidate's own start instant and are updated incrementally as
     batch mates are accepted, so the scan does no ledger folds; the
     cost only changes when an accepted mate lands on a shared port, and
     the refresh reaches exactly those candidates through per-port index
     lists instead of a full-batch walk.

     Every candidate keeps its arrival start, so the policy rate is the
     one of section 5.1 (MinRate or f x MaxRate at ts) and is always
     defined. *)
  let cap = List.length batch in
  let reqs = Array.make cap first in
  let cbw = Array.make cap 0. in
  let cap_in = Array.make cap 0. in
  let cap_out = Array.make cap 0. in
  let use_in = Array.make cap 0. in
  let use_out = Array.make cap 0. in
  let costs = Array.make cap 0. in
  let ids = Array.make cap 0 in
  let alive = Array.make cap false in
  let n = ref 0 in
  List.iter
    (fun (r : Request.t) ->
      match Policy.assign policy r ~now:r.ts with
      | Some bw ->
          let i = !n in
          reqs.(i) <- r;
          cbw.(i) <- bw;
          cap_in.(i) <- Fabric.ingress_capacity fabric r.ingress;
          cap_out.(i) <- Fabric.egress_capacity fabric r.egress;
          use_in.(i) <- Ledger.usage_at ledger (Port.Ingress r.ingress) r.ts;
          use_out.(i) <- Ledger.usage_at ledger (Port.Egress r.egress) r.ts;
          costs.(i) <-
            Float.max ((use_in.(i) +. bw) /. cap_in.(i)) ((use_out.(i) +. bw) /. cap_out.(i));
          ids.(i) <- r.Request.id;
          alive.(i) <- true;
          incr n
      | None -> record r (Types.Rejected Types.Deadline_unreachable))
    batch;
  let n = !n in
  let cost i =
    Float.max
      ((use_in.(i) +. cbw.(i)) /. cap_in.(i))
      ((use_out.(i) +. cbw.(i)) /. cap_out.(i))
  in
  (* The saturated side of a candidate, from its cached usage counters. *)
  let sat_info i =
    if (use_in.(i) +. cbw.(i)) /. cap_in.(i) >= (use_out.(i) +. cbw.(i)) /. cap_out.(i) then
      Some ((Event.Ingress, reqs.(i).Request.ingress), cap_in.(i) -. use_in.(i))
    else Some ((Event.Egress, reqs.(i).Request.egress), cap_out.(i) -. use_out.(i))
  in
  (* Per-port candidate index arrays, ascending — candidate order is
     arrival order, so each array is sorted by start instant and the
     refresh after an accept binary-searches the [sigma, tau) window
     instead of filtering the whole port list. *)
  let port_index count port_of =
    let cnt = Array.make count 0 in
    for i = 0 to n - 1 do
      let p = port_of reqs.(i) in
      cnt.(p) <- cnt.(p) + 1
    done;
    let idx = Array.map (fun c -> Array.make c 0) cnt in
    Array.fill cnt 0 count 0;
    for i = 0 to n - 1 do
      let p = port_of reqs.(i) in
      idx.(p).(cnt.(p)) <- i;
      cnt.(p) <- cnt.(p) + 1
    done;
    idx
  in
  let by_in = port_index (Fabric.ingress_count fabric) (fun r -> r.Request.ingress) in
  let by_out = port_index (Fabric.egress_count fabric) (fun r -> r.Request.egress) in
  (* First position in [idxs] whose candidate starts at or after [t]. *)
  let lower_bound (idxs : int array) t =
    let lo = ref 0 and hi = ref (Array.length idxs) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if reqs.(idxs.(mid)).Request.ts < t then lo := mid + 1 else hi := mid
    done;
    !lo
  in
  (* Lazy min-heap on (cost, id).  Costs only ever increase while packing
     (mates landing on a shared port push usage up), so an entry's stored
     cost is a lower bound on its current cost: when a stale or dead entry
     surfaces it is refreshed in place (or dropped) and re-sunk, and a
     root whose stored cost is current is the exact (cost, id) argmin —
     the same candidate the linear scan would pick. *)
  let hcost = Array.make (max n 1) 0. in
  let hidx = Array.make (max n 1) 0 in
  let hsize = ref n in
  let hless c1 i1 c2 i2 = c1 < c2 || (c1 = c2 && ids.(i1) < ids.(i2)) in
  let rec sift_down p =
    let l = (2 * p) + 1 in
    if l < !hsize then begin
      let r = l + 1 in
      let s =
        if r < !hsize && hless hcost.(r) hidx.(r) hcost.(l) hidx.(l) then r else l
      in
      if hless hcost.(s) hidx.(s) hcost.(p) hidx.(p) then begin
        let c = hcost.(p) and i = hidx.(p) in
        hcost.(p) <- hcost.(s);
        hidx.(p) <- hidx.(s);
        hcost.(s) <- c;
        hidx.(s) <- i;
        sift_down s
      end
    end
  in
  for i = 0 to n - 1 do
    hcost.(i) <- costs.(i);
    hidx.(i) <- i
  done;
  for p = (n / 2) - 1 downto 0 do
    sift_down p
  done;
  let drop_root () =
    hsize := !hsize - 1;
    if !hsize > 0 then begin
      hcost.(0) <- hcost.(!hsize);
      hidx.(0) <- hidx.(!hsize);
      sift_down 0
    end
  in
  (* Cheapest alive candidate (ties: smaller id), from the cached costs. *)
  let rec next_best () =
    let i = hidx.(0) in
    if not alive.(i) then begin
      drop_root ();
      next_best ()
    end
    else if hcost.(0) < costs.(i) then begin
      hcost.(0) <- costs.(i);
      sift_down 0;
      next_best ()
    end
    else i
  in
  let live = ref n in
  let kill i =
    alive.(i) <- false;
    decr live
  in
  while !live > 0 do
    let bi = next_best () in
    if costs.(bi) > 1. +. 1e-9 then begin
      (* Algorithm 3's cut: the cheapest candidate saturates a port, so
         every remaining candidate does too.  Rejections are recorded in
         candidate order, as the pre-compaction walk did. *)
      let tracing = Obs.tracing obs in
      for i = 0 to n - 1 do
        if alive.(i) then begin
          alive.(i) <- false;
          record
            ?blocked:(if tracing then sat_info i else None)
            reqs.(i)
            (Types.Rejected Types.Port_saturated)
        end
      done;
      live := 0
    end
    else begin
      let r = reqs.(bi) in
      let bw = cbw.(bi) in
      let a = Allocation.make ~request:r ~bw ~sigma:r.Request.ts in
      if Ledger.fits ledger a then begin
        (* [fits] just vouched for the whole interval; reserve without the
           redundant re-probe. *)
        Ledger.reserve_interval ledger ~ingress:r.Request.ingress ~egress:r.Request.egress
          ~bw ~from_:a.Allocation.sigma ~until:a.Allocation.tau;
        record r (Types.Accepted a);
        (* Refresh the cached usage (and cost) of batch mates on the
           accepted ports whose start falls inside the accepted
           transmission interval — exactly the [sigma, tau) slice of the
           port's ts-sorted index array. *)
        let touch (use : float array) (idxs : int array) =
          let stop = lower_bound idxs a.Allocation.tau in
          for k = lower_bound idxs a.Allocation.sigma to stop - 1 do
            let i = idxs.(k) in
            if alive.(i) && i <> bi then begin
              use.(i) <- use.(i) +. bw;
              costs.(i) <- cost i
            end
          done
        in
        touch use_in by_in.(r.Request.ingress);
        touch use_out by_out.(r.Request.egress)
      end
      else
        (* Instantaneously cheap but blocked by a reservation spike
           later in its transmission interval. *)
        record ?blocked:(Emit.spike_port obs ledger a) r (Types.Rejected Types.Port_saturated);
      kill bi
    end
  done

let window ?(ctx = Runtime.default) fabric policy ~step requests =
  let obs = ctx.Runtime.obs in
  if step <= 0. || not (Float.is_finite step) then
    invalid_arg "Flexible.window: step must be positive and finite";
  Request.check_routes "Flexible" fabric requests;
  Policy.validate policy;
  let ledger = Ledger.create fabric in
  let seqs = if Obs.tracing obs then Emit.seq_table requests else Hashtbl.create 1 in
  let accepted = ref [] and rejected = ref [] in
  let decide r d =
    match d with
    | Types.Accepted a -> accepted := a :: !accepted
    | Types.Rejected reason -> rejected := (r, reason) :: !rejected
  in
  (* Every candidate books from its own arrival, so no query of a batch
     reaches behind its earliest arrival and the breakpoints there can be
     folded away.  The horizon is that arrival, not [k·step]:
     [floor (ts /. step)] can put a [ts] one ulp below [k·step] into
     batch [k]. *)
  List.iter
    (fun (k, batch) ->
      Emit.emit_arrivals obs seqs batch;
      (match batch with
      | (first : Request.t) :: _ -> Ledger.retire_before ledger first.ts
      | [] -> ());
      pack_batch ~obs ~now:(float_of_int (k + 1) *. step) policy ledger ~decide batch)
    (batches ~step requests);
  { Types.all = requests; accepted = List.rev !accepted; rejected = List.rev !rejected }

let book_ahead ?(ctx = Runtime.default) fabric policy ~announce requests =
  let obs = ctx.Runtime.obs in
  Request.check_routes "Flexible" fabric requests;
  Policy.validate policy;
  let ledger = Ledger.create fabric in
  let seqs = if Obs.tracing obs then Emit.seq_table requests else Hashtbl.create 1 in
  let order =
    List.map
      (fun (r : Request.t) ->
        let lead = announce r in
        if lead < 0. || not (Float.is_finite lead) then
          invalid_arg "Flexible.book_ahead: announce lead must be non-negative and finite";
        (r.ts -. lead, r))
      requests
    |> List.sort (fun (ta, (a : Request.t)) (tb, (b : Request.t)) ->
           match Float.compare ta tb with 0 -> Int.compare a.id b.id | c -> c)
  in
  let decisions =
    List.map
      (fun (announce_at, (r : Request.t)) ->
        (* Trace stamp is the announce instant — the moment the decision is
           actually taken under book-ahead. *)
        Emit.emit_arrival obs seqs ~time:announce_at r;
        let d, blocked =
          match Policy.assign policy r ~now:r.ts with
          | None -> (Types.Rejected Types.Deadline_unreachable, None)
          | Some bw ->
              let a = Allocation.make ~request:r ~bw ~sigma:r.ts in
              if Ledger.fits ledger a then begin
                Ledger.reserve ledger a;
                (Types.Accepted a, None)
              end
              else (Types.Rejected Types.Port_saturated, Emit.spike_port obs ledger a)
        in
        Emit.emit_decision obs ~time:announce_at ?blocked r d;
        (r, d))
      order
  in
  collect requests decisions

let window_deferred ?(ctx = Runtime.default) fabric policy ~step requests =
  let obs = ctx.Runtime.obs in
  if step <= 0. || not (Float.is_finite step) then
    invalid_arg "Flexible.window_deferred: step must be positive and finite";
  Request.check_routes "Flexible" fabric requests;
  Policy.validate policy;
  let ctl = Online.create fabric in
  let seqs = if Obs.tracing obs then Emit.seq_table requests else Hashtbl.create 1 in
  let decisions = ref [] in
  let decide r d = decisions := (r, d) :: !decisions in
  (* Rejections decided by the batch loop itself (the cut and the deadline
     filter) are traced here; admissions go through [Online.try_admit],
     which traces them itself. *)
  let reject_at time r reason = Emit.emit_decision obs ~time r (Types.Rejected reason) in
  List.iter
    (fun (k, batch) ->
      let decision_time = float_of_int (k + 1) *. step in
      Emit.emit_arrivals obs seqs batch;
      Online.advance_to ctl decision_time;
      (* Candidates that can still meet their deadline after the delay,
         with their saturation cost cached: within the batch the clock is
         pinned at [decision_time], so a candidate's cost only changes
         when an admission lands on one of its ports — recompute exactly
         those instead of re-scoring the whole remainder every round. *)
      let candidates =
        List.filter_map
          (fun (r : Request.t) ->
            match Online.peek_cost ctl policy r ~at:decision_time with
            | None ->
                reject_at decision_time r Types.Deadline_unreachable;
                decide r (Types.Rejected Types.Deadline_unreachable);
                None
            | Some (_, c) -> Some (r, ref c, ref true))
          batch
        |> Array.of_list
      in
      let live = ref (Array.length candidates) in
      (* Admit in increasing saturation cost; stop as soon as the cheapest
         candidate no longer fits (Algorithm 3's cut). *)
      while !live > 0 do
        let best = ref None in
        Array.iter
          (fun (r, c, alive) ->
            if !alive then
              match !best with
              | None -> best := Some (r, c)
              | Some ((b : Request.t), bc) ->
                  if !c < !bc || (!c = !bc && r.Request.id < b.Request.id) then best := Some (r, c))
          candidates;
        match !best with
        | None -> live := 0
        | Some (best_r, best_cost) ->
            if !best_cost > 1. +. 1e-9 then begin
              (* The cut rejects the survivors in candidate order, as the
                 per-round re-scoring walk did. *)
              Array.iter
                (fun (r, _, alive) ->
                  if !alive then begin
                    alive := false;
                    reject_at decision_time r Types.Port_saturated;
                    decide r (Types.Rejected Types.Port_saturated)
                  end)
                candidates;
              live := 0
            end
            else begin
              let d = Online.try_admit ~ctx ctl policy best_r ~at:decision_time in
              decide best_r d;
              Array.iter (fun (r, _, alive) -> if !alive && Request.equal r best_r then alive := false) candidates;
              decr live;
              match d with
              | Types.Accepted _ ->
                  (* Only shared-port candidates see different counters. *)
                  Array.iter
                    (fun (r, c, alive) ->
                      if
                        !alive
                        && (r.Request.ingress = best_r.Request.ingress
                           || r.Request.egress = best_r.Request.egress)
                      then
                        match Online.peek_cost ctl policy r ~at:decision_time with
                        | Some (_, c') -> c := c'
                        | None -> ())
                    candidates
              | Types.Rejected _ -> ()
            end
      done)
    (batches ~step requests);
  collect requests (List.rev !decisions)

let heuristic_name = function
  | `Greedy -> "greedy"
  | `Window step -> Printf.sprintf "window(%g)" step
  | `Window_deferred step -> Printf.sprintf "window-deferred(%g)" step

let run ?ctx kind fabric policy requests =
  match kind with
  | `Greedy -> greedy ?ctx fabric policy requests
  | `Window step -> window ?ctx fabric policy ~step requests
  | `Window_deferred step -> window_deferred ?ctx fabric policy ~step requests
