(** Rebuild a run summary from an event trace.

    A plain run's trace ([gridbw run --trace-out], binary frames) is
    self-contained: [Arrival] events embed the full request and their
    input-list position, [Accept] events embed the request plus the granted
    [bw]/[sigma].  This module parses such a trace back into the original
    request list and decision-ordered allocations, so
    {!Summary.compute} reproduces the live run's summary bit for bit
    (summary float accumulation is order-sensitive, hence the care with
    ordering).

    Engine-driven traces (the fault injector) are out of scope: residual
    re-admissions duplicate [Accept] ids and [Dispatch] interleaving breaks
    chronology — see {!Gridbw_fault.Injector.run}. *)

type t = {
  events : Gridbw_obs.Event.t list;  (** every parsed event, stream order *)
  requests : Gridbw_request.Request.t list;
      (** arrivals restored to input-list order (by [Arrival.seq]) *)
  accepted : Gridbw_alloc.Allocation.t list;
      (** accepts in decision (stream) order *)
}

val of_string : string -> (t, string) result
(** Decode a trace of binary frames ({!Gridbw_obs.Event_codec.Binary});
    span frames ({!Gridbw_obs.Span.frame_tag}) are skipped.  [Error]
    names the first bad record (1-based) or the invalid event field. *)

val of_file : string -> (t, string) result
(** {!of_string} over a whole file. *)

val of_events : Gridbw_obs.Event.t list -> (t, string) result

val monotone : Gridbw_obs.Event.t list -> bool
(** Timestamps are non-decreasing in stream order — guaranteed for plain
    (non-engine) runs of every heuristic. *)

val fabric :
  t -> (Gridbw_topology.Fabric.t, [ `No_prefix | `Invalid of string ]) result
(** The fabric described by the trace's {e leading} [Capacity] events (the
    prefix before any other event kind) — counterexample bundles written by
    the fuzzer and durable stores open with one such event per port, making
    the trace fully self-contained.  [Error `No_prefix] when the trace has
    no leading capacity events at all (e.g. a plain [run --trace-out]
    trace, which starts directly with arrivals) — the caller decides the
    fallback.  [Error (`Invalid _)] when a prefix is present but does not
    describe a complete valid fabric (a port with no event, a non-finite
    or non-positive capacity, an empty side) — such a trace must not be
    summarised against a silently substituted fabric. *)

val summary : Gridbw_topology.Fabric.t -> t -> Summary.t
(** The live run's summary, recomputed from the trace alone. *)
