module Obs = Gridbw_obs.Obs

type t = { mutable clock : float; queue : (t -> unit) Event_queue.t; obs : Obs.ctx }

let create ?(obs = Obs.disabled) ?(start = 0.0) () =
  { clock = start; queue = Event_queue.create (); obs }

let now t = t.clock

let schedule t ~time handler =
  if time < t.clock then invalid_arg "Engine.schedule: time is in the past";
  Event_queue.push t.queue ~time handler

let after t ~delay handler =
  if delay < 0. then invalid_arg "Engine.after: negative delay";
  schedule t ~time:(t.clock +. delay) handler

let pending t = Event_queue.length t.queue

let step t =
  match Event_queue.pop t.queue with
  | None -> false
  | Some (time, handler) ->
      t.clock <- time;
      if t.obs.Obs.enabled then begin
        Obs.count t.obs "engine_dispatches";
        Obs.observe t.obs "engine_queue_depth" (float_of_int (pending t))
      end;
      handler t;
      true

let run ?until t =
  let continue () =
    match (Event_queue.peek t.queue, until) with
    | None, _ -> false
    | Some _, None -> true
    | Some (time, _), Some limit -> time <= limit
  in
  while continue () do
    ignore (step t)
  done;
  match until with
  | Some limit when t.clock < limit -> t.clock <- limit
  | _ -> ()
