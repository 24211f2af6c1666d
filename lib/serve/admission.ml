(* The daemon's admission state machine.  See admission.mli. *)

module Obs = Gridbw_obs.Obs
module Event = Gridbw_obs.Event
module Metrics = Gridbw_obs.Metrics
module Span = Gridbw_obs.Span
module Store = Gridbw_store.Store
module Replay = Gridbw_metrics.Replay
module Runtime = Gridbw_core.Runtime
module Online = Gridbw_core.Online
module Policy = Gridbw_core.Policy
module Types = Gridbw_core.Types
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Reference = Gridbw_check.Reference

type entry =
  | Booked of Allocation.t
  | Refused of string
  | Cancelled of Allocation.t  (** was booked, then preempted by a cancel *)

type t = {
  ctl : Online.t;
  policy : Policy.t;
  obs : Obs.ctx;  (** merged with the store's journaling sink when one is attached *)
  store : Store.t option;
  entries : (int, entry) Hashtbl.t;
  mutable seq : int;  (** Arrival events emitted so far (journal replay order) *)
  mutable dirty : bool;
  mutable accepted : int;
  mutable rejected : int;
}

let make ?obs ?store ~policy ctl =
  let obs = match obs with Some o -> o | None -> Obs.create () in
  let obs = match store with Some s -> Store.attach s obs | None -> obs in
  {
    ctl;
    policy;
    obs;
    store;
    entries = Hashtbl.create 256;
    seq = 0;
    dirty = false;
    accepted = 0;
    rejected = 0;
  }

let create ?obs ?store ~policy fabric =
  Policy.validate policy;
  make ?obs ?store ~policy (Online.create fabric)

let obs t = t.obs
let dirty t = t.dirty

let flush t =
  Option.iter Store.flush t.store;
  t.dirty <- false

let close t = Option.iter Store.close t.store
let records t = match t.store with Some s -> Store.records s | None -> 0
let accepted_count t = t.accepted
let rejected_count t = t.rejected
let active_count t = Online.active_count t.ctl

(* --- request handling --- *)

let bad_request message = Protocol.Error { code = Protocol.Bad_request; message }

let prior_decision id = function
  | Booked a | Cancelled a ->
      Protocol.Admitted
        { id; bw = a.Allocation.bw; sigma = a.Allocation.sigma; tau = a.Allocation.tau }
  | Refused reason -> Protocol.Rejected { id; reason }

let admit ?span t ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate =
  match Hashtbl.find_opt t.entries id with
  (* At-least-once retries: a duplicate admit returns the journaled
     decision without re-deciding (or re-journaling). *)
  | Some e -> prior_decision id e
  | None -> (
      if ts < 0. then bad_request "ts must be >= 0"
      else
        match Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate with
        | exception Invalid_argument msg -> bad_request msg
        | r ->
            if not (Request.routed_on r (Online.fabric t.ctl)) then
              bad_request
                (Printf.sprintf "no such route: ingress %d -> egress %d" ingress egress)
            else begin
              let at = Float.max (Online.now t.ctl) r.Request.ts in
              Option.iter (fun sp -> Span.set_req sp id) span;
              Obs.event t.obs (fun () ->
                  Event.Arrival
                    { time = at; seq = t.seq; id; ingress; egress; volume; ts; tf; max_rate });
              t.seq <- t.seq + 1;
              (* The span rides the ctx: [try_admit] records the search
                 timing and the live-counter probe delta onto it. *)
              let decision =
                Online.try_admit ~ctx:(Runtime.make ~obs:t.obs ?span ()) t.ctl t.policy r ~at
              in
              if t.store <> None then t.dirty <- true;
              match decision with
              | Types.Accepted a ->
                  Hashtbl.replace t.entries id (Booked a);
                  t.accepted <- t.accepted + 1;
                  Protocol.Admitted
                    { id; bw = a.Allocation.bw; sigma = a.Allocation.sigma; tau = a.Allocation.tau }
              | Types.Rejected reason ->
                  let reason = Types.reason_name reason in
                  Hashtbl.replace t.entries id (Refused reason);
                  t.rejected <- t.rejected + 1;
                  Protocol.Rejected { id; reason }
            end)

let query t id =
  let disposition =
    match Hashtbl.find_opt t.entries id with
    | None -> Protocol.Unknown
    | Some (Refused reason) -> Protocol.Refused { reason }
    | Some (Cancelled _) -> Protocol.Cancelled
    | Some (Booked a) ->
        let bw = a.Allocation.bw and sigma = a.Allocation.sigma and tau = a.Allocation.tau in
        if tau <= Online.now t.ctl then Protocol.Done { bw; sigma; tau }
        else Protocol.Active { bw; sigma; tau }
  in
  Protocol.Status { id; disposition }

let cancel t id =
  match Hashtbl.find_opt t.entries id with
  | None -> Protocol.Cancel_failed { id; reason = "unknown id" }
  | Some (Refused _) -> Protocol.Cancel_failed { id; reason = "was rejected" }
  | Some (Cancelled _) -> Protocol.Cancel_ok { id } (* idempotent retry *)
  | Some (Booked a) ->
      if Online.preempt ~ctx:(Runtime.make ~obs:t.obs ()) t.ctl a then begin
        Hashtbl.replace t.entries id (Cancelled a);
        if t.store <> None then t.dirty <- true;
        Protocol.Cancel_ok { id }
      end
      else Protocol.Cancel_failed { id; reason = "transfer already finished" }

let handle ?span t = function
  | Protocol.Admit { id; ingress; egress; volume; ts; tf; max_rate } ->
      admit ?span t ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate
  | Protocol.Query { id } ->
      Option.iter (fun sp -> Span.set_req sp id) span;
      query t id
  | Protocol.Cancel { id } ->
      Option.iter (fun sp -> Span.set_req sp id) span;
      cancel t id
  | Protocol.Stats -> Protocol.Stats_text (Metrics.to_prometheus (Obs.metrics t.obs))
  | Protocol.Shutdown -> Protocol.Goodbye { records = records t }

(* --- recovery --- *)

let of_recovered ?obs ~policy (r : Store.recovered) =
  Policy.validate policy;
  match Reference.refusal (Reference.audit_recovered r) with
  | Some why -> Error why
  | None ->
      let t =
        make ?obs ~store:r.Store.store ~policy
          (Online.create r.Store.journal.Replay.fabric)
      in
      (* Replay the journal through the controller in event order —
         the same grab/release sequence the live daemon performed, so
         the float accumulators come back bit-identical.  Nothing is
         emitted: replay must not re-journal. *)
      List.iter
        (fun ev ->
          match (ev, Online.replay t.ctl ev) with
          | Event.Arrival _, _ -> t.seq <- t.seq + 1
          | Event.Accept { id; _ }, Some a ->
              Hashtbl.replace t.entries id (Booked a);
              t.accepted <- t.accepted + 1
          | Event.Reject { id; reason; _ }, _ ->
              Hashtbl.replace t.entries id (Refused reason);
              t.rejected <- t.rejected + 1
          | Event.Preempt { id; _ }, _ -> (
              match Hashtbl.find_opt t.entries id with
              | Some (Booked a) -> Hashtbl.replace t.entries id (Cancelled a)
              | _ -> ())
          (* the serving plane journals constant-rate admissions
             only, so a malleable Reshape never appears here *)
          | _ -> ())
        r.Store.journal.Replay.events;
      Ok t
