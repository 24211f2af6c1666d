(** On-line heuristics for short-lived {e flexible} requests (paper,
    section 5).

    GREEDY (Algorithm 2) decides the instant a request arrives.  WINDOW
    (Algorithm 3) batches the requests arriving within each [t_step]-long
    interval and packs the whole batch in increasing order of
    port-saturation cost; every accepted request still starts at its own
    arrival time ([sigma = ts]), so a longer interval buys better
    {e knowledge} (more candidates compared against each other) at the
    price of a longer response time to the user — exactly the trade-off of
    section 5.2.  {!window_deferred} is a stricter variant where a request
    cannot start before its batch is decided; see DESIGN.md (ablation A1).

    Every entry point takes the runtime context as [?ctx]
    ({!Runtime.ctx}: telemetry + span); a journal attached to [ctx.obs]
    ({!Gridbw_store.Store.attach}) records every arrival and decision.
    The packing kernel {!pack_batch} is the one exception — it takes the
    telemetry context directly, as the fault injector drives it
    mid-revision. *)

val greedy :
  ?ctx:Runtime.ctx ->
  ?journal:Gridbw_obs.Event.t list ->
  Gridbw_topology.Fabric.t ->
  Policy.t ->
  Gridbw_request.Request.t list ->
  Types.result
(** Algorithm 2.  Requests are processed in arrival order ([ts], ties by
    smaller [MinRate] then id, as in section 5.1); each is granted the
    policy rate at [sigma = ts] iff both its ports currently have room.
    A journal attached to [ctx.obs] records every arrival and decision in
    processing order — the property a resume relies on.

    With [journal], the run resumes an interrupted one: [journal] is the
    surviving event history of the same workload
    ({!Gridbw_store.Store.recovered}[.events], audited first), and
    [fabric] the fabric it was journaled against.  Its events are
    replayed into the controller with {!Online.replay}, rebuilding the
    float counters bit-for-bit, then the requests without a journaled
    decision are processed exactly as the uninterrupted run would have.
    Because the journal's surviving prefix is the same run stopped
    early, the result's [accepted] (journaled ++ resumed, decision order)
    and its summary are bit-identical to the uninterrupted run's;
    [rejected] only covers the resumed decisions.  A request whose
    arrival was journaled but whose decision was lost is not announced
    twice. *)

val window :
  ?ctx:Runtime.ctx ->
  Gridbw_topology.Fabric.t ->
  Policy.t ->
  step:float ->
  Gridbw_request.Request.t list ->
  Types.result
(** Algorithm 3 with interval length [step > 0].  The batch of interval
    [[k·step, (k+1)·step)) is packed against a time-indexed ledger:
    repeatedly take the candidate with the smallest saturation cost
    [max((used_in(ts)+bw)/B_in, (used_out(ts)+bw)/B_out)]; once the
    cheapest candidate's cost exceeds 1 the rest of the batch is rejected
    (the paper's cut).  A min-cost candidate whose whole transmission
    interval does not fit (a later reservation spike) is rejected alone —
    a refinement the instantaneous-counter formulation cannot express.
    Accepted requests transmit on [\[ts, ts + vol/bw)). *)

val window_deferred :
  ?ctx:Runtime.ctx ->
  Gridbw_topology.Fabric.t ->
  Policy.t ->
  step:float ->
  Gridbw_request.Request.t list ->
  Types.result
(** Ablation variant: decisions {e and starts} are delayed to the end of
    the arrival interval ([sigma = (k+1)·step]).  Because the start is
    delayed, rates are recomputed against the residual window and
    candidates whose deadline became unreachable are rejected with
    [Deadline_unreachable]; bandwidth of finished transfers is reclaimed
    at boundaries only.  This is what Algorithm 3 becomes without arrival
    lookahead; comparing it against {!window} quantifies how much of the
    WINDOW gain is knowledge versus batching. *)

val book_ahead :
  ?ctx:Runtime.ctx ->
  Gridbw_topology.Fabric.t ->
  Policy.t ->
  announce:(Gridbw_request.Request.t -> float) ->
  Gridbw_request.Request.t list ->
  Types.result
(** Advance reservations (the book-ahead model the paper contrasts with in
    section 6, Burchard et al. [6]): each request is {e announced}
    [announce r] seconds of lead before its start and decided in announce
    order against the time-indexed ledger — first-come-first-booked on
    future capacity.  An accepted request transmits at the policy rate on
    [\[ts, ts + vol/bw))] exactly as under GREEDY; what changes is only
    {e when} it claimed the capacity.  [announce] must be non-negative
    (raises [Invalid_argument] otherwise).  With a constant lead this is
    equivalent to {!greedy} up to the ledger's exact future accounting;
    heterogeneous leads let early bookers displace late ones. *)

(** {2 WINDOW internals, shared with the fault subsystem}

    The fault injector replays Algorithm 3 batch-by-batch while capacity
    revisions and preemptions interleave, so the batching and packing
    kernels are exposed.  They behave exactly as inside {!window}. *)

val arrival_order : Gridbw_request.Request.t list -> Gridbw_request.Request.t list
(** The processing order of {!greedy}: by arrival time, then minimum
    rate, then id. *)

val batches :
  step:float -> Gridbw_request.Request.t list -> (int * Gridbw_request.Request.t list) list
(** Group requests by the [step]-interval their arrival falls into, in
    interval order, each batch in arrival order. *)

val pack_batch :
  ?obs:Gridbw_obs.Obs.ctx ->
  ?now:float ->
  Policy.t ->
  Gridbw_alloc.Ledger.t ->
  decide:(Gridbw_request.Request.t -> Types.decision -> unit) ->
  Gridbw_request.Request.t list ->
  unit
(** Pack one batch against the ledger (min-cost order, Algorithm 3's cut),
    calling [decide] once per request.  Capacities are read from the
    ledger's {e current} fabric.

    With [obs], the pack runs under the ["pack_batch"] profiling span,
    every decision feeds the admission counters and the
    [ledger_probes_per_decision] histogram (the delta of
    {!Gridbw_alloc.Ledger.probe_count} since the previous decision), and
    trace events are stamped at [now] — the batch's decision instant,
    defaulting to the latest arrival in the batch. *)

val collect :
  Gridbw_request.Request.t list ->
  (Gridbw_request.Request.t * Types.decision) list ->
  Types.result
(** Assemble a {!Types.result} from per-request decisions (accepted and
    rejected lists keep the decision order). *)

val heuristic_name : [ `Greedy | `Window of float | `Window_deferred of float ] -> string
(** "greedy", "window(400)" or "window-deferred(400)". *)

val run :
  ?ctx:Runtime.ctx ->
  [ `Greedy | `Window of float | `Window_deferred of float ] ->
  Gridbw_topology.Fabric.t ->
  Policy.t ->
  Gridbw_request.Request.t list ->
  Types.result
