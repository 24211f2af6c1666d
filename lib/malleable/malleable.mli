(** The MALLEABLE admission engine: step-profile reservations with
    in-advance booking and admission-time reshaping.

    Where the constant engines (GREEDY/WINDOW) assign each admitted
    request one rate over one interval, MALLEABLE assigns a
    {!Gridbw_alloc.Rate_profile.t} — a step function whose rate changes
    only at ledger breakpoints.  The transfer window [\[ts, tf)] and the
    volume are fixed by the request; the engine is free to vary the rate
    over time within [\[0, max_rate\]] and the ports' spare capacity
    (constraint set (1) of the paper, §4), which strictly dominates any
    constant-rate feasibility: every constant schedule is a one-step
    profile.

    Three ingredients:

    - {b Water-fill solve}: the request's volume is poured into the
      merged breakpoint segments of its two ports, earliest-first, each
      segment capped by [min (max_rate, headroom_in, headroom_out)].
      The closing step's rate is solved so the profile's Kahan
      {!Gridbw_alloc.Rate_profile.integral} equals the volume
      {e bit-for-bit} — the engine walks representable floats (rate and
      segment-end ulp walks) rather than accepting a near-miss.

    - {b In-advance booking} ([book_ahead]): each request is decided
      [book_ahead] before its start time, in announce order
      [(ts - book_ahead, id)] — the same discipline as the WINDOW
      deferred variants, so future windows are visible at decision time.

    - {b Reshaping} ([reshape]): when a request does not fit the current
      free capacity, the engine re-solves the profiles of every admitted
      transfer that has not yet started, together with the new request,
      in EDF order on a scratch ledger.  All-or-nothing: only if every
      transfer closes exactly is the scratch adopted and one atomic
      {!Gridbw_obs.Event.Reshape} record journaled (carrying the new
      profile and every revision); otherwise the live ledger is
      untouched.  Recovery replays that single record transactionally —
      both-or-neither. *)

type config = {
  book_ahead : float;
      (** decide each request this long before its [ts] (>= 0, finite) *)
  reshape : bool;
      (** when an admit fails, try re-solving pending profiles before
          rejecting *)
  kappa : float;
      (** compensation limit (>= 1): no profile step exceeds
          [kappa * min_rate].  Bounding the peak keeps one flexible
          request from claiming far more than its fair constant share
          while squeezing past a busy stretch — unbounded compensation
          admits volume hogs whose capacity cost shows up as later
          rejects.  [infinity] removes the bound. *)
}

val default : config
(** [{ book_ahead = 0.; reshape = true; kappa = infinity }]. *)

val name : config -> string
(** "malleable", "malleable(ba=7)", "malleable(no-reshape)" or
    "malleable(ba=7,no-reshape)". *)

val deadline_limit : Gridbw_request.Request.t -> float
(** Latest admissible end of a profile's last step: [tf] plus a relative
    [1e-10] slack, strictly inside {!Gridbw_alloc.Allocation.meets_deadline}'s
    bound.  Exposed for the test suite. *)

val solve :
  ?peak_bound:float ->
  Gridbw_alloc.Ledger.t ->
  Gridbw_request.Request.t ->
  start:float ->
  Gridbw_alloc.Rate_profile.t option
(** Water-fill the request's volume into the ledger's free capacity over
    [\[start, tf)].  [Some p] satisfies: [Rate_profile.integral p] equals
    the volume bitwise, [peak p <= max_rate], every segment fits the free
    capacity of both ports, and [finish p <= deadline_limit r].  [None]
    when no such profile closes.  The ledger is not modified.

    [peak_bound] (default unbounded) additionally clamps every step to
    [max min_rate peak_bound] — the compensation limit the engine sets
    to [kappa * min_rate] so one flexible request cannot claim much more
    than its fair constant share while squeezing past a busy stretch. *)

val run :
  config ->
  ?ctx:Gridbw_core.Runtime.ctx ->
  Gridbw_topology.Fabric.t ->
  Gridbw_request.Request.t list ->
  Gridbw_core.Types.result
(** Run the engine over a full workload.  Accepted allocations carry
    their final (post-reshape) profiles in decision order.  With a
    journal attached to [ctx.obs], profiled accepts journal one
    {!Gridbw_obs.Event.Reshape} record each (instead of Accept);
    rejects journal Reject as usual. *)

val scheduler : config -> Gridbw_core.Scheduler.t
(** Package a configuration as a first-class engine for the harness,
    CLI and experiment tables. *)

val engines : unit -> Gridbw_core.Scheduler.t list
(** The default sweep pair: [malleable] and [malleable(ba=7)]. *)
