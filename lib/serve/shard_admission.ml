(* The daemon's admission state machine over the sharded engine.  See
   shard_admission.mli. *)

module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event
module Span = Gridbw_obs.Span
module Store = Gridbw_store.Store
module Replay = Gridbw_metrics.Replay
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Reference = Gridbw_check.Reference
module Engine = Gridbw_shard.Engine

type entry =
  | Booked of Allocation.t
  | Refused of string
  | Cancelled of Allocation.t
  | In_flight  (** a worker is deciding this id right now; duplicates wait *)

type t = {
  engine : Engine.t;
  entries : (int, entry) Hashtbl.t;
  m : Mutex.t;
  settled : Condition.t;
}

let make engine =
  { engine; entries = Hashtbl.create 256; m = Mutex.create (); settled = Condition.create () }

let create ~shards ~policy fabric = make (Engine.create ~shards policy fabric)
let shards t = Engine.shards t.engine
let stop t = Engine.stop t.engine

(* --- request handling (thread-safe: workers call these concurrently) --- *)

let bad_request message = Protocol.Error { code = Protocol.Bad_request; message }

let prior_decision id = function
  | Booked a | Cancelled a ->
      Protocol.Admitted
        { id; bw = a.Allocation.bw; sigma = a.Allocation.sigma; tau = a.Allocation.tau }
  | Refused reason -> Protocol.Rejected { id; reason }
  | In_flight -> assert false

(* Claim [id] for this worker, or wait out a concurrent decider and
   return its decision (at-least-once retries must see one decision). *)
let claim t id =
  Mutex.lock t.m;
  let rec go () =
    match Hashtbl.find_opt t.entries id with
    | Some In_flight ->
        Condition.wait t.settled t.m;
        go ()
    | Some e ->
        Mutex.unlock t.m;
        `Prior (prior_decision id e)
    | None ->
        Hashtbl.replace t.entries id In_flight;
        Mutex.unlock t.m;
        `Claimed
  in
  go ()

let settle t id entry =
  Mutex.lock t.m;
  (match entry with
  | None -> Hashtbl.remove t.entries id
  | Some e -> Hashtbl.replace t.entries id e);
  Condition.broadcast t.settled;
  Mutex.unlock t.m

let admit ?(obs = Obs.disabled) t ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate =
  match claim t id with
  | `Prior resp -> resp
  | `Claimed -> (
      let invalid msg =
        settle t id None;
        bad_request msg
      in
      if ts < 0. then invalid "ts must be >= 0"
      else
        match Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate with
        | exception Invalid_argument msg -> invalid msg
        | r ->
            if not (Request.routed_on r (Engine.fabric t.engine)) then
              invalid
                (Printf.sprintf "no such route: ingress %d -> egress %d" ingress egress)
            else begin
              (* the engine sequences, decides, and journals Arrival +
                 decision inside the freeze window; this is the sharded
                 counterpart of the admit-search span stage *)
              let t0 = Span.now_ns () in
              let decision = Engine.try_admit ~obs t.engine r in
              Obs.observe obs "serve_stage_admit_search_ns" (Span.now_ns () -. t0);
              match decision with
              | Types.Accepted a ->
                  settle t id (Some (Booked a));
                  Protocol.Admitted
                    { id; bw = a.Allocation.bw; sigma = a.Allocation.sigma; tau = a.Allocation.tau }
              | Types.Rejected reason ->
                  let reason = Types.reason_name reason in
                  settle t id (Some (Refused reason));
                  Protocol.Rejected { id; reason }
            end)

let query t id =
  Mutex.lock t.m;
  let rec entry () =
    match Hashtbl.find_opt t.entries id with
    | Some In_flight ->
        Condition.wait t.settled t.m;
        entry ()
    | e -> e
  in
  let e = entry () in
  Mutex.unlock t.m;
  let disposition =
    match e with
    | None -> Protocol.Unknown
    | Some (Refused reason) -> Protocol.Refused { reason }
    | Some (Cancelled _) -> Protocol.Cancelled
    | Some (Booked a) ->
        let bw = a.Allocation.bw and sigma = a.Allocation.sigma and tau = a.Allocation.tau in
        if tau <= Engine.now t.engine then Protocol.Done { bw; sigma; tau }
        else Protocol.Active { bw; sigma; tau }
    | Some In_flight -> assert false
  in
  Protocol.Status { id; disposition }

let cancel ?(obs = Obs.disabled) t id =
  Mutex.lock t.m;
  let rec entry () =
    match Hashtbl.find_opt t.entries id with
    | Some In_flight ->
        Condition.wait t.settled t.m;
        entry ()
    | e -> e
  in
  match entry () with
  | None ->
      Mutex.unlock t.m;
      Protocol.Cancel_failed { id; reason = "unknown id" }
  | Some (Refused _) ->
      Mutex.unlock t.m;
      Protocol.Cancel_failed { id; reason = "was rejected" }
  | Some (Cancelled _) ->
      Mutex.unlock t.m;
      Protocol.Cancel_ok { id } (* idempotent retry *)
  | Some (Booked a) ->
      (* hold the id In_flight across the engine call so a racing cancel
         or query of the same id waits instead of double-preempting *)
      Hashtbl.replace t.entries id In_flight;
      Mutex.unlock t.m;
      if Engine.cancel ~obs t.engine a then begin
        settle t id (Some (Cancelled a));
        Protocol.Cancel_ok { id }
      end
      else begin
        settle t id (Some (Booked a));
        Protocol.Cancel_failed { id; reason = "transfer already finished" }
      end
  | Some In_flight -> assert false

(* --- recovery --- *)

let of_recovered ~shards ~policy (r : Store.recovered) =
  Policy.validate policy;
  match Reference.refusal (Reference.audit_recovered r) with
  | Some why -> Error why
  | None -> (
      match
        Engine.of_events ~journal:r.Store.store ~shards ~policy
          ~fabric:r.Store.journal.Replay.fabric
          r.Store.journal.Replay.events
      with
      | Error e -> Error e
      | Ok engine ->
          let t = make engine in
          let by_id = Hashtbl.create 256 in
          List.iter
            (fun (_, (a : Allocation.t)) ->
              Hashtbl.replace by_id a.Allocation.request.Request.id a)
            r.Store.accepted;
          List.iter
            (fun ev ->
              match ev with
              | Event.Accept { id; _ } ->
                  Hashtbl.replace t.entries id (Booked (Hashtbl.find by_id id))
              | Event.Reject { id; reason; _ } ->
                  Hashtbl.replace t.entries id (Refused reason)
              | Event.Preempt { id; _ } -> (
                  match Hashtbl.find_opt t.entries id with
                  | Some (Booked a) -> Hashtbl.replace t.entries id (Cancelled a)
                  | _ -> ())
              | Event.Arrival _ | Event.Reshape _ | Event.Capacity _ | Event.Shed _ -> ())
            r.Store.journal.Replay.events;
          Ok t)
