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
  let log = Types.Log.create () in
  List.iter (fun (r, d) -> Types.Log.add log r d) decisions;
  Types.Log.result log all

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
  let log = Types.Log.create () in
  let decide ~arrive (r : Request.t) =
    if arrive && Obs.tracing obs then Emit.emit_arrival obs seqs r;
    Types.Log.add log r (Online.try_admit ~ctx ctl policy r ~at:r.ts)
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
  Types.Log.result ~booked log requests

(* [f k batch] for the batch of each [step]-interval [k] an arrival falls
   into, in interval order, each batch in arrival order.  A forward sweep
   over consecutive runs of {!arrival_order}: arrival order makes the
   interval keys non-decreasing, so no per-interval table is needed, and
   each batch's list is built from the back of its run only when the
   sweep reaches it. *)
let iter_batches ~step requests f =
  let arr = Array.of_list (arrival_order requests) in
  let interval (r : Request.t) = int_of_float (Float.floor (r.ts /. step)) in
  let n = Array.length arr and i = ref 0 in
  while !i < n do
    let k = interval arr.(!i) in
    let j = ref (!i + 1) in
    while !j < n && interval arr.(!j) = k do
      incr j
    done;
    let batch = ref [] in
    for m = !j - 1 downto !i do
      batch := arr.(m) :: !batch
    done;
    f k !batch;
    i := !j
  done

let batches ~step requests =
  let res = ref [] in
  iter_batches ~step requests (fun k batch -> res := (k, batch) :: !res);
  List.rev !res

(* WINDOW's packing state, in parallel flat arrays — floats unboxed, ids
   and liveness immediate — so the min-cost scan, the post-accept refresh
   and the cut sweep plain array cells instead of chasing per-candidate
   records.  A run creates one workspace and every batch reuses it: the
   candidate arrays grow to the largest batch, the port offsets to the
   fabric's port counts.

   [use_in]/[use_out] cache the port usage at the candidate's start and
   are updated incrementally as batch mates are accepted, so the scan
   does no ledger folds; the cost only changes when an accepted mate
   lands on a shared port, and the refresh reaches exactly those
   candidates through the port index.  The index is compressed rows:
   the candidates on ingress port [p] are [in_idx.(k)] for [k] from
   [in_at.(p)] to [in_at.(p + 1) - 1], ascending, and likewise for
   egress.  Candidate order is arrival order, so each port's slice is
   sorted by start, and the refresh after an accept binary-searches its
   [sigma, tau) window.

   [hcost]/[hidx] are a lazy min-heap on (cost, id) of its first [hsize]
   cells.  Costs only ever increase while packing (mates landing on a
   shared port push usage up), so an entry's stored cost is a lower
   bound on its current cost: when a stale or dead entry surfaces it is
   refreshed in place (or dropped) and re-sunk, and a root whose stored
   cost is current is the exact (cost, id) argmin — the same candidate a
   linear scan would pick. *)
type workspace = {
  mutable reqs : Request.t array;
  mutable starts : float array;
  mutable cbw : float array;
  mutable cap_in : float array;
  mutable cap_out : float array;
  mutable use_in : float array;
  mutable use_out : float array;
  mutable costs : float array;
  mutable ids : int array;
  mutable alive : bool array;
  mutable hcost : float array;
  mutable hidx : int array;
  mutable in_idx : int array;
  mutable out_idx : int array;
  mutable in_at : int array;
  mutable out_at : int array;
  mutable n : int;  (** candidates in the batch *)
  mutable hsize : int;
  mutable probes : int;  (** the ledger's probe count at the last decision *)
}

let workspace () =
  {
    reqs = [||];
    starts = [||];
    cbw = [||];
    cap_in = [||];
    cap_out = [||];
    use_in = [||];
    use_out = [||];
    costs = [||];
    ids = [||];
    alive = [||];
    hcost = [||];
    hidx = [||];
    in_idx = [||];
    out_idx = [||];
    in_at = [||];
    out_at = [||];
    n = 0;
    hsize = 0;
    probes = 0;
  }

(* Room for a batch of [size] on [fabric]; [first] fills new request
   cells.  A batch overwrites every cell it reads, so nothing is
   copied. *)
let fit ws fabric size first =
  if Array.length ws.reqs < size then begin
    let floats () = Array.make size 0. and ints () = Array.make size 0 in
    ws.reqs <- Array.make size first;
    ws.starts <- floats ();
    ws.cbw <- floats ();
    ws.cap_in <- floats ();
    ws.cap_out <- floats ();
    ws.use_in <- floats ();
    ws.use_out <- floats ();
    ws.costs <- floats ();
    ws.ids <- ints ();
    ws.alive <- Array.make size false;
    ws.hcost <- floats ();
    ws.hidx <- ints ();
    ws.in_idx <- ints ();
    ws.out_idx <- ints ()
  end;
  let ports n at = if Array.length at <= n then Array.make (n + 1) 0 else at in
  ws.in_at <- ports (Fabric.ingress_count fabric) ws.in_at;
  ws.out_at <- ports (Fabric.egress_count fabric) ws.out_at

(* One decision: the probe histogram, the counters and trace record,
   then the caller's [decide]. *)
let record ws ~obs ~now ledger decide ?blocked r d =
  if obs.Obs.enabled then begin
    let p = Ledger.probe_count ledger in
    Obs.observe obs "ledger_probes_per_decision" (float_of_int (p - ws.probes));
    ws.probes <- p
  end;
  Emit.emit_decision obs ~time:now ?blocked r d;
  decide r d

let[@inline] cost ws i =
  Float.max
    ((ws.use_in.(i) +. ws.cbw.(i)) /. ws.cap_in.(i))
    ((ws.use_out.(i) +. ws.cbw.(i)) /. ws.cap_out.(i))

(* The batch's requests with a policy rate become candidates, in batch
   order; the rest are rejected on the spot. *)
let rec add_candidates ws ~obs ~now ~deferred policy ledger fabric decide = function
  | [] -> ()
  | (r : Request.t) :: rest ->
      let start = if deferred then now else r.ts in
      (match Policy.assign policy r ~now:start with
      | Some bw ->
          let i = ws.n in
          ws.reqs.(i) <- r;
          ws.starts.(i) <- start;
          ws.cbw.(i) <- bw;
          ws.cap_in.(i) <- Fabric.ingress_capacity fabric r.ingress;
          ws.cap_out.(i) <- Fabric.egress_capacity fabric r.egress;
          ws.use_in.(i) <- Ledger.usage_at ledger (Port.Ingress r.ingress) start;
          ws.use_out.(i) <- Ledger.usage_at ledger (Port.Egress r.egress) start;
          ws.costs.(i) <- cost ws i;
          ws.ids.(i) <- r.id;
          ws.alive.(i) <- true;
          ws.n <- i + 1
      | None -> record ws ~obs ~now ledger decide r (Types.Rejected Types.Deadline_unreachable));
      add_candidates ws ~obs ~now ~deferred policy ledger fabric decide rest

(* The port index of one side over [count] ports: count per port into
   [at.(p + 1)], prefix-sum the offsets, place each candidate while
   [at.(p)] runs to the end of its slice, then shift the offsets back. *)
let index_ports ws ~ingress (at : int array) (idx : int array) count =
  let port i = if ingress then ws.reqs.(i).Request.ingress else ws.reqs.(i).Request.egress in
  Array.fill at 0 (count + 1) 0;
  for i = 0 to ws.n - 1 do
    let p = port i + 1 in
    at.(p) <- at.(p) + 1
  done;
  for p = 1 to count do
    at.(p) <- at.(p) + at.(p - 1)
  done;
  for i = 0 to ws.n - 1 do
    let p = port i in
    idx.(at.(p)) <- i;
    at.(p) <- at.(p) + 1
  done;
  for p = count downto 1 do
    at.(p) <- at.(p - 1)
  done;
  at.(0) <- 0

(* First position in [idx.(lo) .. idx.(hi - 1)] whose candidate starts
   at or after [t]. *)
let lower_bound ws (idx : int array) lo hi t =
  let lo = ref lo and hi = ref hi in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ws.starts.(idx.(mid)) < t then lo := mid + 1 else hi := mid
  done;
  !lo

(* After [bi] was accepted as [a] on port [p]: refresh the cached usage
   (and cost) of its alive batch mates on that port whose start falls
   inside the accepted transmission interval — exactly the [sigma, tau)
   part of the port's slice. *)
let touch ws (use : float array) (at : int array) (idx : int array) p bi (a : Allocation.t) =
  let lo = at.(p) and hi = at.(p + 1) in
  let stop = lower_bound ws idx lo hi a.Allocation.tau in
  for k = lower_bound ws idx lo hi a.Allocation.sigma to stop - 1 do
    let i = idx.(k) in
    if ws.alive.(i) && i <> bi then begin
      use.(i) <- use.(i) +. ws.cbw.(bi);
      ws.costs.(i) <- cost ws i
    end
  done

let[@inline] hless ws c1 i1 c2 i2 = c1 < c2 || (c1 = c2 && ws.ids.(i1) < ws.ids.(i2))

let rec sift_down ws p =
  let l = (2 * p) + 1 in
  if l < ws.hsize then begin
    let hcost = ws.hcost and hidx = ws.hidx in
    let r = l + 1 in
    let s = if r < ws.hsize && hless ws hcost.(r) hidx.(r) hcost.(l) hidx.(l) then r else l in
    if hless ws hcost.(s) hidx.(s) hcost.(p) hidx.(p) then begin
      let c = hcost.(p) and i = hidx.(p) in
      hcost.(p) <- hcost.(s);
      hidx.(p) <- hidx.(s);
      hcost.(s) <- c;
      hidx.(s) <- i;
      sift_down ws s
    end
  end

let heapify ws =
  for i = 0 to ws.n - 1 do
    ws.hcost.(i) <- ws.costs.(i);
    ws.hidx.(i) <- i
  done;
  ws.hsize <- ws.n;
  for p = (ws.n / 2) - 1 downto 0 do
    sift_down ws p
  done

let drop_root ws =
  ws.hsize <- ws.hsize - 1;
  if ws.hsize > 0 then begin
    ws.hcost.(0) <- ws.hcost.(ws.hsize);
    ws.hidx.(0) <- ws.hidx.(ws.hsize);
    sift_down ws 0
  end

(* Cheapest alive candidate (ties: smaller id), from the cached costs. *)
let rec next_best ws =
  let i = ws.hidx.(0) in
  if not ws.alive.(i) then begin
    drop_root ws;
    next_best ws
  end
  else if ws.hcost.(0) < ws.costs.(i) then begin
    ws.hcost.(0) <- ws.costs.(i);
    sift_down ws 0;
    next_best ws
  end
  else i

(* The saturated side of a candidate, from its cached usage counters. *)
let sat_info ws i =
  let r = ws.reqs.(i) in
  if (ws.use_in.(i) +. ws.cbw.(i)) /. ws.cap_in.(i) >= (ws.use_out.(i) +. ws.cbw.(i)) /. ws.cap_out.(i)
  then Some ((Event.Ingress, r.Request.ingress), ws.cap_in.(i) -. ws.use_in.(i))
  else Some ((Event.Egress, r.Request.egress), ws.cap_out.(i) -. ws.use_out.(i))

(* Algorithm 3's inner loop: one batch against a shared ledger, read at
   the ledger's current fabric (the fault subsystem revises it mid-run),
   on the workspace [ws].  Trace events are stamped at [now], the batch's
   decision instant.

   Under WINDOW a candidate starts at its own arrival, so its policy rate
   is the one of section 5.1 (MinRate or f x MaxRate at ts).  Under
   WINDOW-DEFERRED ([deferred]) it starts at [now], the interval end
   [(k+1)·step], and the rate, sigma and the ledger usage are all read
   there.  No arrival of batch [k] lies past it: a [ts] above the
   rounded product lies above the exact one, so [ts /. step] rounds to
   at least [k+1]. *)
let pack ws ~obs ~now ~deferred policy ledger ~decide batch =
  Obs.span obs pack_span @@ fun () ->
  match batch with
  | [] -> ()
  | first :: _ ->
      let fabric = Ledger.fabric ledger in
      fit ws fabric (List.length batch) first;
      ws.probes <- Ledger.probe_count ledger;
      ws.n <- 0;
      add_candidates ws ~obs ~now ~deferred policy ledger fabric decide batch;
      index_ports ws ~ingress:true ws.in_at ws.in_idx (Fabric.ingress_count fabric);
      index_ports ws ~ingress:false ws.out_at ws.out_idx (Fabric.egress_count fabric);
      heapify ws;
      let live = ref ws.n in
      while !live > 0 do
        let bi = next_best ws in
        if ws.costs.(bi) > 1. +. 1e-9 then begin
          (* Algorithm 3's cut: the cheapest candidate saturates a port,
             so every remaining candidate does too.  Rejections are
             recorded in candidate order. *)
          let tracing = Obs.tracing obs in
          for i = 0 to ws.n - 1 do
            if ws.alive.(i) then begin
              ws.alive.(i) <- false;
              record ws ~obs ~now ledger decide
                ?blocked:(if tracing then sat_info ws i else None)
                ws.reqs.(i) (Types.Rejected Types.Port_saturated)
            end
          done;
          live := 0
        end
        else begin
          let r = ws.reqs.(bi) in
          let bw = ws.cbw.(bi) in
          let a = Allocation.make ~request:r ~bw ~sigma:ws.starts.(bi) in
          if Ledger.fits ledger a then begin
            (* [fits] just vouched for the whole interval; reserve without
               the redundant re-probe. *)
            Ledger.reserve_interval ledger ~ingress:r.Request.ingress ~egress:r.Request.egress ~bw
              ~from_:a.Allocation.sigma ~until:a.Allocation.tau;
            record ws ~obs ~now ledger decide r (Types.Accepted a);
            touch ws ws.use_in ws.in_at ws.in_idx r.Request.ingress bi a;
            touch ws ws.use_out ws.out_at ws.out_idx r.Request.egress bi a
          end
          else
            (* Instantaneously cheap but blocked by a reservation spike
               later in its transmission interval. *)
            record ws ~obs ~now ledger decide ?blocked:(Emit.spike_port obs ledger a) r
              (Types.Rejected Types.Port_saturated);
          ws.alive.(bi) <- false;
          decr live
        end
      done

let pack_batch ?(obs = Obs.disabled) ~now policy ledger ~decide batch =
  pack (workspace ()) ~obs ~now ~deferred:false policy ledger ~decide batch

(* WINDOW and WINDOW-DEFERRED: each [step]-interval's batch is packed at
   the interval end [(k+1)·step], on one workspace for the run.  No
   query of a batch reaches behind its earliest start, so the
   breakpoints there are folded away first.  For WINDOW that is the
   batch's first arrival, not [k·step]: [floor (ts /. step)] can put a
   [ts] one ulp below [k·step] into batch [k]. *)
let windowed ~name ~deferred ?(ctx = Runtime.default) fabric policy ~step requests =
  let obs = ctx.Runtime.obs in
  if step <= 0. || not (Float.is_finite step) then
    invalid_arg ("Flexible." ^ name ^ ": step must be positive and finite");
  Request.check_routes "Flexible" fabric requests;
  Policy.validate policy;
  let ledger = Ledger.create fabric in
  let seqs = if Obs.tracing obs then Emit.seq_table requests else Hashtbl.create 1 in
  let ws = workspace () and log = Types.Log.create () in
  let decide = Types.Log.add log in
  iter_batches ~step requests (fun k batch ->
      let now = float_of_int (k + 1) *. step in
      Emit.emit_arrivals obs seqs batch;
      (match batch with
      | (first : Request.t) :: _ -> Ledger.retire_before ledger (if deferred then now else first.ts)
      | [] -> ());
      pack ws ~obs ~now ~deferred policy ledger ~decide batch);
  Types.Log.result log requests

let window = windowed ~name:"window" ~deferred:false

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
  let log = Types.Log.create () in
  List.iter
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
      Types.Log.add log r d)
    order;
  Types.Log.result log requests

(* Every booking starts at an interval end no later than [now], so no
   port's ledger usage rises after [now]: [Ledger.fits] over a candidate's
   interval reads the instantaneous usage the paper's counters hold. *)
let window_deferred = windowed ~name:"window_deferred" ~deferred:true

let heuristic_name = function
  | `Greedy -> "greedy"
  | `Window step -> Printf.sprintf "window(%g)" step
  | `Window_deferred step -> Printf.sprintf "window-deferred(%g)" step

let run ?ctx kind fabric policy requests =
  match kind with
  | `Greedy -> greedy ?ctx fabric policy requests
  | `Window step -> window ?ctx fabric policy ~step requests
  | `Window_deferred step -> window_deferred ?ctx fabric policy ~step requests
