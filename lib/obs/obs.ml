type ctx = {
  enabled : bool;
  tracing : bool;
  sink : Sink.t;
  metrics : Metrics.t;
}

let disabled =
  { enabled = false; tracing = false; sink = Sink.noop; metrics = Metrics.create () }

let create ?sink ?metrics () =
  {
    enabled = true;
    tracing = Option.is_some sink;
    sink = Option.value sink ~default:Sink.noop;
    metrics = (match metrics with Some m -> m | None -> Metrics.create ());
  }

let enabled ctx = ctx.enabled
let tracing ctx = ctx.tracing
let metrics ctx = ctx.metrics

let event ctx make = if ctx.tracing then ctx.sink.Sink.emit (make ())
let emit ctx ev = if ctx.tracing then ctx.sink.Sink.emit ev
let flush ctx = if ctx.enabled then ctx.sink.Sink.flush ()

let count ctx name = if ctx.enabled then Metrics.incr (Metrics.counter ctx.metrics name)

let count_n ctx name n =
  if ctx.enabled then Metrics.add (Metrics.counter ctx.metrics name) n

let observe ctx name v =
  if ctx.enabled then Metrics.observe (Metrics.histogram ctx.metrics name) v

let incr ctx k = if ctx.enabled then Metrics.incr (Metrics.counter_of ctx.metrics k)
let set ctx k v = if ctx.enabled then Metrics.set (Metrics.gauge_of ctx.metrics k) v

type span_key = Metrics.histogram Metrics.key

let span_key name = Metrics.histogram_key ("span_" ^ name ^ "_ns")

let observe_since h t0 =
  Metrics.observe h (Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0))

let span ctx k f =
  if not ctx.enabled then f ()
  else begin
    let h = Metrics.histogram_of ctx.metrics k in
    let t0 = Monotonic_clock.now () in
    match f () with
    | v ->
        observe_since h t0;
        v
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        observe_since h t0;
        Printexc.raise_with_backtrace e bt
  end
