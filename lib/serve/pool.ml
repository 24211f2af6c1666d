(* Worker pool over the sharded admission engine.  See pool.mli. *)

module Obs = Gridbw_obs.Obs
module Mailbox = Gridbw_shard.Mailbox

type slot = {
  sm : Mutex.t;
  sc : Condition.t;
  mutable sv : Protocol.response option;
}

type job = Protocol.request * slot

type t = {
  adm : Shard_admission.t;
  boxes : job Mailbox.t array;
  mutable domains : unit Domain.t list;
  mutable stopped : bool;
}

let handle_one adm obs = function
  | Protocol.Admit { id; ingress; egress; volume; ts; tf; max_rate } ->
      Obs.count obs "serve_requests_total";
      Shard_admission.admit ~obs adm ~id ~ingress ~egress ~volume ~ts ~tf ~max_rate
  | Protocol.Query { id } ->
      Obs.count obs "serve_requests_total";
      Shard_admission.query adm id
  | Protocol.Cancel { id } ->
      Obs.count obs "serve_requests_total";
      Shard_admission.cancel ~obs adm id
  | Protocol.Stats | Protocol.Shutdown ->
      Protocol.Error { code = Protocol.Bad_request; message = "not routed to workers" }

let create adm =
  let workers = Shard_admission.shards adm in
  let boxes = Array.init workers (fun _ -> Mailbox.create ()) in
  (* One registry per worker (a registry is not thread-safe).  Nothing
     reads them; they keep the metric updates a serving worker made on
     the path perfbench's pool.op layer times. *)
  let worker_obs = Array.init workers (fun _ -> Obs.create ()) in
  let t = { adm; boxes; domains = []; stopped = false } in
  t.domains <-
    Array.to_list
      (Array.mapi
         (fun w box ->
           Domain.spawn (fun () ->
               let obs = worker_obs.(w) in
               let rec loop () =
                 match Mailbox.recv box with
                 | Some (req, slot) ->
                     let resp = handle_one adm obs req in
                     Mutex.lock slot.sm;
                     slot.sv <- Some resp;
                     Condition.signal slot.sc;
                     Mutex.unlock slot.sm;
                     loop ()
                 | None -> ()
               in
               loop ()))
         boxes);
  t

(* Sticky dispatch by connection: one connection's requests land on one
   worker in order, preserving the protocol's answer-in-request-order
   guarantee even with pipelined clients. *)
let submit t ~conn req =
  let slot = { sm = Mutex.create (); sc = Condition.create (); sv = None } in
  Mailbox.send t.boxes.(conn mod Array.length t.boxes) (req, slot);
  slot

let await slot =
  Mutex.lock slot.sm;
  while slot.sv = None do
    Condition.wait slot.sc slot.sm
  done;
  let v = Option.get slot.sv in
  Mutex.unlock slot.sm;
  v

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Array.iter Mailbox.close t.boxes;
    List.iter Domain.join t.domains;
    t.domains <- [];
    Shard_admission.stop t.adm
  end
