module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Fabric = Gridbw_topology.Fabric
module Live = Gridbw_alloc.Live
module Event_queue = Gridbw_sim.Event_queue
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event
module Store = Gridbw_store.Store

type hist_op = H_admit of Request.t | H_cancel of { id : int; bw : float }
type hist_entry = { ticket : int; at : float; op : hist_op; ok : Types.decision option }

type t = {
  policy : Policy.t;
  fabric : Fabric.t;
  part : Partition.t;
  seq : Sequencer.t;
  cores : Core.t array;
  boxes : Core.msg Mailbox.t array option;  (* None: inline (single-threaded) mode *)
  mutable domains : unit Domain.t list;
  journal : Store.t option;
  jlock : Mutex.t;
  mutable jseq : int;
  next_op : int Atomic.t;
  hist : (hist_entry list ref * Mutex.t) option;
  mutable stopped : bool;
}

let create ?journal ?(record = false) ?(spawn = true) ~shards policy fabric =
  Policy.validate policy;
  let part = Partition.make ~shards in
  let cores = Array.init shards (fun s -> Core.create ~shard:s ~partition:part fabric) in
  let boxes = if spawn then Some (Array.init shards (fun _ -> Mailbox.create ())) else None in
  let t =
    {
      policy;
      fabric;
      part;
      seq = Sequencer.create ();
      cores;
      boxes;
      domains = [];
      journal;
      jlock = Mutex.create ();
      jseq = 0;
      next_op = Atomic.make 0;
      hist = (if record then Some (ref [], Mutex.create ()) else None);
      stopped = false;
    }
  in
  (match boxes with
  | None -> ()
  | Some boxes ->
      t.domains <-
        Array.to_list
          (Array.mapi
             (fun s box ->
               Domain.spawn (fun () ->
                   let core = cores.(s) in
                   let rec loop () =
                     match Mailbox.recv box with
                     | Some msg ->
                         Core.handle core msg;
                         loop ()
                     | None -> ()
                   in
                   loop ()))
             boxes));
  t

let shards t = Array.length t.cores
let fabric t = t.fabric
let policy t = t.policy
let now t = Sequencer.now t.seq
let active_count t = Array.fold_left (fun acc c -> acc + Core.active_ingress_count c) 0 t.cores
let probe_count t = Array.fold_left (fun acc c -> acc + Core.probe_count c) 0 t.cores
let ingress_used t i = Core.ingress_used t.cores.(Partition.of_ingress t.part i) i
let egress_used t e = Core.egress_used t.cores.(Partition.of_egress t.part e) e

let post t s msg =
  match t.boxes with
  | Some boxes -> Mailbox.send boxes.(s) msg
  | None -> Core.handle t.cores.(s) msg

(* --- synchronous RPC over the mailboxes --- *)

type cell = { m : Mutex.t; c : Condition.t; mutable v : Core.reply option }

let cell () = { m = Mutex.create (); c = Condition.create (); v = None }

let fill cell r =
  Mutex.lock cell.m;
  cell.v <- Some r;
  Condition.signal cell.c;
  Mutex.unlock cell.m

let await cell =
  Mutex.lock cell.m;
  while cell.v = None do
    Condition.wait cell.c cell.m
  done;
  let v = Option.get cell.v in
  Mutex.unlock cell.m;
  v

let rpc t s make_msg =
  let c = cell () in
  post t s (make_msg (fill c));
  await c

(* --- journaling (inside the freeze window, under one lock) --- *)

let with_jlock t f =
  Mutex.lock t.jlock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.jlock) f

let journal_arrival_and t ~at (r : Request.t) ev =
  match t.journal with
  | None -> ()
  | Some st ->
      with_jlock t (fun () ->
          Store.log st
            (Event.Arrival
               {
                 time = at;
                 seq = t.jseq;
                 id = r.Request.id;
                 ingress = r.Request.ingress;
                 egress = r.Request.egress;
                 volume = r.Request.volume;
                 ts = r.Request.ts;
                 tf = r.Request.tf;
                 max_rate = r.Request.max_rate;
               });
          t.jseq <- t.jseq + 1;
          Store.log st ev)

let journal_event t ev =
  match t.journal with
  | None -> ()
  | Some st ->
      with_jlock t (fun () -> Store.log st ev)

let record t entry =
  match t.hist with
  | None -> ()
  | Some (r, m) ->
      Mutex.lock m;
      r := entry :: !r;
      Mutex.unlock m

let history t =
  match t.hist with
  | None -> []
  | Some (r, m) ->
      Mutex.lock m;
      let l = !r in
      Mutex.unlock m;
      List.sort (fun a b -> Int.compare a.ticket b.ticket) l

(* --- admission --- *)

let expect_probed = function
  | Core.Probed { ing; egr; _ } -> (ing, egr)
  | _ -> invalid_arg "Shard.Engine: unexpected reply to probe"

let decision_event ~at ~shard ?blocked (r : Request.t) = function
  | Types.Accepted a ->
      Event.Accept
        {
          time = at;
          id = r.Request.id;
          ingress = r.Request.ingress;
          egress = r.Request.egress;
          volume = r.Request.volume;
          ts = r.Request.ts;
          tf = r.Request.tf;
          max_rate = r.Request.max_rate;
          bw = a.Allocation.bw;
          sigma = a.Allocation.sigma;
          shard = Some shard;
        }
  | Types.Rejected reason ->
      let port, headroom =
        match blocked with Some (p, h) -> (Some p, Some h) | None -> (None, None)
      in
      Event.Reject
        { time = at; id = r.Request.id; reason = Types.reason_name reason; port; headroom; shard = Some shard }

let try_admit ?(obs = Obs.disabled) t (r : Request.t) =
  let s1, s2 = Partition.involved t.part ~ingress:r.Request.ingress ~egress:r.Request.egress in
  let op = Atomic.fetch_and_add t.next_op 1 in
  (* phase 1: freeze in ascending shard order (deadlock-free), then
     sequence — the linearization point. *)
  ignore (rpc t s1 (fun k -> Core.Freeze { op; k }));
  Option.iter (fun s -> ignore (rpc t s (fun k -> Core.Freeze { op; k }))) s2;
  let ticket, at = Sequencer.next t.seq ~ts:r.Request.ts in
  let bw = Policy.assign t.policy r ~now:at in
  let p1 = expect_probed (rpc t s1 (fun k -> Core.Probe { op; at; r; bw; k })) in
  let p2 = Option.map (fun s -> expect_probed (rpc t s (fun k -> Core.Probe { op; at; r; bw; k }))) s2 in
  let pick f = match (p1, p2) with
    | (a, b), None -> (match f (a, b) with Some v -> v | None -> invalid_arg "Shard.Engine: side not probed")
    | (a, b), Some (a', b') -> (
        match f (a, b) with
        | Some v -> v
        | None -> ( match f (a', b') with Some v -> v | None -> invalid_arg "Shard.Engine: side not probed"))
  in
  let ing_ok, head_in = pick fst in
  let egr_ok, head_out = pick snd in
  let decision =
    match bw with
    | None -> Types.Rejected Types.Deadline_unreachable
    | Some bw ->
        if ing_ok && egr_ok then
          Types.Accepted (Allocation.make ~request:r ~bw ~sigma:(Float.max at r.Request.ts))
        else Types.Rejected Types.Port_saturated
  in
  (* the deciding shard recorded on the journal is the ingress owner *)
  let dshard = Partition.of_ingress t.part r.Request.ingress in
  let blocked =
    match decision with
    | Types.Rejected Types.Port_saturated ->
        (* same tighter-side rule as Online.blocking_port *)
        if head_in <= head_out then Some ((Event.Ingress, r.Request.ingress), head_in)
        else Some ((Event.Egress, r.Request.egress), head_out)
    | _ -> None
  in
  let ev = decision_event ~at ~shard:dshard ?blocked r decision in
  (* journal inside the freeze window: per-port record order = ticket order *)
  journal_arrival_and t ~at r ev;
  (* phase 2 *)
  (match decision with
  | Types.Accepted a ->
      post t s1 (Core.Commit { op; a; k = ignore });
      Option.iter (fun s -> post t s (Core.Commit { op; a; k = ignore })) s2
  | Types.Rejected _ ->
      post t s1 (Core.Abort { op; k = ignore });
      Option.iter (fun s -> post t s (Core.Abort { op; k = ignore })) s2);
  record t { ticket; at; op = H_admit r; ok = Some decision };
  if obs.Obs.enabled then begin
    Obs.count obs "admit_requests_total";
    (match decision with
    | Types.Accepted _ -> Obs.count obs "admit_accepted_total"
    | Types.Rejected _ -> Obs.count obs "admit_rejected_total");
    Obs.event obs (fun () -> ev)
  end;
  decision

let cancel ?(obs = Obs.disabled) t (a : Allocation.t) =
  let r = a.Allocation.request in
  let id = r.Request.id in
  let s1, s2 = Partition.involved t.part ~ingress:r.Request.ingress ~egress:r.Request.egress in
  let op = Atomic.fetch_and_add t.next_op 1 in
  ignore (rpc t s1 (fun k -> Core.Freeze { op; k }));
  Option.iter (fun s -> ignore (rpc t s (fun k -> Core.Freeze { op; k }))) s2;
  (* a cancel linearizes at the current clock, like Online.preempt *)
  let ticket, at = Sequencer.next t.seq ~ts:neg_infinity in
  let active_of = function
    | Core.Cancel_probed { active; _ } -> active
    | _ -> invalid_arg "Shard.Engine: unexpected reply to cancel-probe"
  in
  let a1 = active_of (rpc t s1 (fun k -> Core.Cancel_probe { op; at; id; k })) in
  let a2 = Option.map (fun s -> active_of (rpc t s (fun k -> Core.Cancel_probe { op; at; id; k }))) s2 in
  (* activeness is the global criterion tau > at: both shards agree *)
  let active = match a2 with None -> a1 | Some a2 -> assert (a1 = a2); a1 in
  if active then begin
    let dshard = Partition.of_ingress t.part r.Request.ingress in
    journal_event t
      (Event.Preempt { time = at; id; bw = a.Allocation.bw; shard = Some dshard });
    post t s1 (Core.Cancel_commit { op; id; k = ignore });
    Option.iter (fun s -> post t s (Core.Cancel_commit { op; id; k = ignore })) s2
  end
  else begin
    post t s1 (Core.Abort { op; k = ignore });
    Option.iter (fun s -> post t s (Core.Abort { op; k = ignore })) s2
  end;
  record t
    {
      ticket;
      at;
      op = H_cancel { id; bw = a.Allocation.bw };
      ok = (if active then Some (Types.Accepted a) else None);
    };
  if active && obs.Obs.enabled then Obs.count obs "preempted_total";
  active

(* --- maintenance --- *)

let settle t =
  let at = Sequencer.now t.seq in
  Array.iteri
    (fun s _ ->
      let op = Atomic.fetch_and_add t.next_op 1 in
      ignore (rpc t s (fun k -> Core.Freeze { op; k }));
      (* a cancel-probe of an id that cannot exist is exactly "advance to
         [at] under the freeze": it drains due releases and mutates
         nothing else *)
      ignore (rpc t s (fun k -> Core.Cancel_probe { op; at; id = min_int; k }));
      post t s (Core.Abort { op; k = ignore }))
    t.cores

let flush t =
  match t.journal with
  | None -> ()
  | Some st ->
      with_jlock t (fun () -> Store.flush st)

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    (match t.boxes with
    | None -> ()
    | Some boxes -> Array.iter Mailbox.close boxes);
    List.iter Domain.join t.domains;
    t.domains <- []
  end

(* --- recovery: per-port replay ---

   The journal interleaves shards, so event times are monotone per port
   but not globally.  Replaying with one clock per *port* (draining that
   port's releases up to each event's time before applying it) keeps the
   per-accumulator operation sequence identical to the live run for any
   shard count — including re-partitioning N -> N'. *)

let start_domains t =
  let boxes = Array.map (fun _ -> Mailbox.create ()) t.cores in
  let t = { t with boxes = Some boxes } in
  t.domains <-
    Array.to_list
      (Array.mapi
         (fun s box ->
           Domain.spawn (fun () ->
               let core = t.cores.(s) in
               let rec loop () =
                 match Mailbox.recv box with
                 | Some msg ->
                     Core.handle core msg;
                     loop ()
                 | None -> ()
               in
               loop ()))
         boxes);
  t

type port_state = {
  mutable pclock : float;
  pq : (float * Allocation.t) Queue.t;  (* (tau, alloc) in ticket order *)
}

let of_events ?journal ?(spawn = true) ~shards ~policy ~fabric events =
  let t = create ?journal ~spawn:false ~shards policy fabric in
  let part = t.part in
  let ing = Array.init (Fabric.ingress_count fabric) (fun _ -> { pclock = neg_infinity; pq = Queue.create () }) in
  let egr = Array.init (Fabric.egress_count fabric) (fun _ -> { pclock = neg_infinity; pq = Queue.create () }) in
  let routes = Hashtbl.create 256 in  (* arrival id -> (ingress, egress) *)
  let live = Hashtbl.create 256 in  (* id -> alloc still booked *)
  let horizon = ref neg_infinity in
  let advance_port ps side_of time =
    if time > ps.pclock then ps.pclock <- time;
    let rec drain () =
      match Queue.peek_opt ps.pq with
      | Some (tau, a) when tau <= ps.pclock ->
          ignore (Queue.pop ps.pq);
          if Hashtbl.mem live a.Allocation.request.Request.id then side_of a;
          drain ()
      | _ -> ()
    in
    drain ()
  in
  let advance_ing i time =
    advance_port ing.(i)
      (fun a ->
        Core.restore_release t.cores.(Partition.of_ingress part i) Core.Ing
          a.Allocation.request.Request.id)
      time
  in
  let advance_egr e time =
    advance_port egr.(e)
      (fun a ->
        Core.restore_release t.cores.(Partition.of_egress part e) Core.Egr
          a.Allocation.request.Request.id)
      time
  in
  let apply ev =
    (match ev with
    | Event.Arrival { id; ingress; egress; _ } ->
        Hashtbl.replace routes id (ingress, egress);
        t.jseq <- t.jseq + 1
    | Event.Accept { time; id; ingress; egress; volume; ts; tf; max_rate; bw; sigma; _ } ->
        let request = Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate in
        let a = Allocation.make ~request ~bw ~sigma in
        advance_ing ingress time;
        advance_egr egress time;
        Core.restore_grab t.cores.(Partition.of_ingress part ingress) Core.Ing a;
        Core.restore_grab t.cores.(Partition.of_egress part egress) Core.Egr a;
        Hashtbl.replace live id a;
        Queue.push (a.Allocation.tau, a) ing.(ingress).pq;
        Queue.push (a.Allocation.tau, a) egr.(egress).pq
    | Event.Reject { time; id; _ } -> (
        match Hashtbl.find_opt routes id with
        | Some (i, e) ->
            advance_ing i time;
            advance_egr e time
        | None -> ())
    | Event.Preempt { time; id; _ } -> (
        match Hashtbl.find_opt live id with
        | Some a ->
            let i = a.Allocation.request.Request.ingress
            and e = a.Allocation.request.Request.egress in
            advance_ing i time;
            advance_egr e time;
            if Hashtbl.mem live id then begin
              (* tau > time: still active — release both sides now *)
              Core.restore_release t.cores.(Partition.of_ingress part i) Core.Ing id;
              Core.restore_release t.cores.(Partition.of_egress part e) Core.Egr id;
              Hashtbl.remove live id
            end
        | None -> ())
    (* Reshape is journaled only by the single-process malleable
       engine; a sharded journal never carries one. *)
    | Event.Reshape _ | Event.Capacity _ | Event.Shed _ | Event.Dispatch _ -> ());
    let time = Event.time ev in
    if time > !horizon then horizon := time
  in
  (* Capacity records describe [fabric]; they are no decisions and move
     no clock.  A journal revising capacities never gets here: the
     recovery audit refuses it first. *)
  let decisions = List.filter (function Event.Capacity _ -> false | _ -> true) events in
  match List.iter apply decisions with
  | exception Invalid_argument msg -> Error ("sharded recovery replay failed: " ^ msg)
  | () ->
      (* a drained release must drop the booking on both sides: drain
         bookkeeping happens through [live] membership, so sweep ports
         one final time at their own clocks (queues keep only
         still-pending releases), then hand the leftovers to the
         cores in original ticket order. *)
      Array.iteri (fun i ps -> advance_ing i ps.pclock) ing;
      Array.iteri (fun e ps -> advance_egr e ps.pclock) egr;
      Array.iteri
        (fun i ps ->
          let entries =
            Queue.fold
              (fun acc (_, a) ->
                if Hashtbl.mem live a.Allocation.request.Request.id then (a, Core.Ing) :: acc
                else acc)
              [] ps.pq
            |> List.rev
          in
          Core.restore_queue t.cores.(Partition.of_ingress part i) entries)
        ing;
      Array.iteri
        (fun e ps ->
          let entries =
            Queue.fold
              (fun acc (_, a) ->
                if Hashtbl.mem live a.Allocation.request.Request.id then (a, Core.Egr) :: acc
                else acc)
              [] ps.pq
            |> List.rev
          in
          Core.restore_queue t.cores.(Partition.of_egress part e) entries)
        egr;
      Array.iter (fun c -> Core.restore_clock c !horizon) t.cores;
      Sequencer.restore_clock t.seq !horizon;
      if spawn then
        (* the inline cores are fully rebuilt; attach mailboxes and
           domains by rebuilding the dispatch layer *)
        Ok (start_domains t)
      else Ok t
