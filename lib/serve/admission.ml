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
module Emit = Gridbw_core.Emit
module Fabric = Gridbw_topology.Fabric
module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation
module Reference = Gridbw_check.Reference

type t = {
  ctl : Online.t;
  policy : Policy.t;
  obs : Obs.ctx;  (** merged with the store's journaling sink when one is attached *)
  store : Store.t option;
  decisions : Decisions.t;
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
    decisions = Decisions.create ();
    seq = 0;
    dirty = false;
    accepted = 0;
    rejected = 0;
  }

let create ?obs ?store ~policy fabric =
  Policy.validate policy;
  make ?obs ?store ~policy (Online.create fabric)

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

let prior_decision d id row =
  match Decisions.state d row with
  | Decisions.Granted | Decisions.Cancelled ->
      Protocol.Admitted
        { id; bw = Decisions.bw d row; sigma = Decisions.sigma d row; tau = Decisions.tau d row }
  | Decisions.Refused -> Protocol.Rejected { id; reason = Decisions.reason d row }

(* Record a grant with the number of the booking the controller just
   made for it. *)
let record_grant t id (a : Allocation.t) =
  Decisions.grant t.decisions id ~bw:a.Allocation.bw ~sigma:a.Allocation.sigma
    ~tau:a.Allocation.tau ~booking:(Online.last_booking t.ctl)

let admit ?span t ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate =
  let row = Decisions.find t.decisions id in
  (* At-least-once retries: a duplicate admit returns the journaled
     decision without re-deciding (or re-journaling). *)
  if row >= 0 then prior_decision t.decisions id row
  else if ts < 0. then bad_request "ts must be >= 0"
  else
    match Request.make ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate with
    | exception Invalid_argument msg -> bad_request msg
    | r ->
        if not (Request.routed_on r (Online.fabric t.ctl)) then
          bad_request (Printf.sprintf "no such route: ingress %d -> egress %d" ingress egress)
        else begin
          let at = Float.max (Online.now t.ctl) r.Request.ts in
          Option.iter (fun sp -> Span.set_req sp id) span;
          Obs.event t.obs (fun () -> Emit.arrival ~time:at ~seq:t.seq r);
          t.seq <- t.seq + 1;
          (* The span rides the ctx: [try_admit] records the search
             timing and the live-counter probe delta onto it. *)
          let decision =
            Online.try_admit ~ctx:(Runtime.make ~obs:t.obs ?span ()) t.ctl t.policy r ~at
          in
          if t.store <> None then t.dirty <- true;
          match decision with
          | Types.Accepted a ->
              record_grant t id a;
              t.accepted <- t.accepted + 1;
              Protocol.Admitted
                { id; bw = a.Allocation.bw; sigma = a.Allocation.sigma; tau = a.Allocation.tau }
          | Types.Rejected reason ->
              let reason = Types.reason_name reason in
              Decisions.refuse t.decisions id reason;
              t.rejected <- t.rejected + 1;
              Protocol.Rejected { id; reason }
        end

let query t id =
  let d = t.decisions in
  let row = Decisions.find d id in
  let disposition =
    if row < 0 then Protocol.Unknown
    else
      match Decisions.state d row with
      | Decisions.Refused -> Protocol.Refused { reason = Decisions.reason d row }
      | Decisions.Cancelled -> Protocol.Cancelled
      | Decisions.Granted ->
          let bw = Decisions.bw d row and sigma = Decisions.sigma d row in
          let tau = Decisions.tau d row in
          if tau <= Online.now t.ctl then Protocol.Done { bw; sigma; tau }
          else Protocol.Active { bw; sigma; tau }
  in
  Protocol.Status { id; disposition }

let cancel t id =
  let d = t.decisions in
  let row = Decisions.find d id in
  if row < 0 then Protocol.Cancel_failed { id; reason = "unknown id" }
  else
    match Decisions.state d row with
    | Decisions.Refused -> Protocol.Cancel_failed { id; reason = "was rejected" }
    | Decisions.Cancelled -> Protocol.Cancel_ok { id } (* idempotent retry *)
    | Decisions.Granted ->
        let ctx = Runtime.make ~obs:t.obs () in
        if Online.preempt_booking ~ctx t.ctl (Decisions.booking d row) then begin
          Decisions.cancel d row;
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
              record_grant t id a;
              t.accepted <- t.accepted + 1
          | Event.Reject { id; reason; _ }, _ ->
              Decisions.refuse t.decisions id reason;
              t.rejected <- t.rejected + 1
          | Event.Preempt { id; _ }, _ ->
              let row = Decisions.find t.decisions id in
              if row >= 0 then Decisions.cancel t.decisions row
          (* the serving plane journals constant-rate admissions
             only, so a malleable Reshape never appears here *)
          | _ -> ())
        r.Store.journal.Replay.events;
      Ok t
