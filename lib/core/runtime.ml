module Obs = Gridbw_obs.Obs
module Span = Gridbw_obs.Span
module Store = Gridbw_store.Store

type ctx = {
  obs : Obs.ctx;
  store : Store.t option;
  span : Span.t option;
}

let default = { obs = Obs.disabled; store = None; span = None }
let make ?(obs = Obs.disabled) ?store ?span () = { obs; store; span }
let with_obs c obs = { c with obs }
let with_store c store = { c with store = Some store }
let with_span c span = { c with span = Some span }

(* The telemetry context an admission path should emit into: with a
   durable store present, every event is also journaled (the store's
   sink tees with any tracing sink already attached). *)
let observed c = match c.store with None -> c.obs | Some s -> Store.attach s c.obs
