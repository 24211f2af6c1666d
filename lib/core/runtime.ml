module Obs = Gridbw_obs.Obs
module Span = Gridbw_obs.Span

type ctx = {
  obs : Obs.ctx;
  span : Span.t option;
}

let default = { obs = Obs.disabled; span = None }
let make ?(obs = Obs.disabled) ?span () = { obs; span }
