(** The one journal reader: a run's views rebuilt from its event stream.

    A plain run's trace ([gridbw run --trace-out], binary frames) and a
    store's journal are self-contained: [Arrival] events embed the full
    request and its input-list position, [Accept]/[Reshape] events embed
    the request plus the granted allocation, and a journal (or a fuzzer
    bundle) opens with a [Capacity] prefix, one event per port, that
    names the fabric.  {!of_events} folds such a stream once into every
    view its readers need: [gridbw replay-trace] and [gridbw recover]
    rebuild the live run's summary bit for bit from it (summary float
    accumulation is order-sensitive, hence the care with ordering),
    {!Gridbw_store.Store.recover} takes its fabric and bookings from it,
    and {!Gridbw_check.Reference.audit_recovered} audits its survivors and
    commitments.
    Every request's route, and every capacity revision's port, is checked
    against the fabric, so a port the fabric lacks is an [Error], never
    an out-of-bounds crash further on.

    Engine-driven traces (the fault injector) are out of scope for the
    summary: residual re-admissions accept an id more than once — see
    {!Gridbw_fault.Injector.run}. *)

type t = {
  events : Gridbw_obs.Event.t list;  (** every event, stream order *)
  fabric : Gridbw_topology.Fabric.t;  (** the capacity prefix's, or the [default] one *)
  revised : bool;
      (** a [Capacity] or [Shed] event follows the prefix (a
          fault-injector run) *)
  requests : Gridbw_request.Request.t list;
      (** arrivals restored to input-list order (by [Arrival.seq]) *)
  accepted : (float * Gridbw_alloc.Allocation.t) list;
      (** every booking with its decision time, decision order; an id
          accepted twice keeps both, and a [Reshape] revising an id
          rewrites every booking of it *)
  decided : int -> bool;  (** the id has an [Accept], [Reshape] or [Reject] *)
  cancelled : int list;  (** the id of every [Preempt], stream order *)
  bookings : (Gridbw_alloc.Allocation.t * float) list;
      (** [accepted]'s bookings, each with the time of the first
          [Preempt] that cut it, [infinity] if none did.  A [Preempt]
          cuts the latest booking its id holds when it comes, never one
          made after it. *)
  survivors : Gridbw_alloc.Allocation.t list;
      (** [accepted] without the cancelled ids, decision order *)
}

type error =
  | No_prefix  (** no leading [Capacity] event, and no [default] *)
  | Bad_prefix of string
      (** a port with no capacity, out of range or with a non-finite or
          non-positive one, or a side with no port *)
  | Bad_event of int * string
      (** the event at this 0-based position names a port the fabric
          lacks, revises a capacity to a non-finite or non-positive one,
          or carries fields no request or allocation can have *)

val describe : error -> string

val of_events :
  ?ports:int * int -> ?default:(unit -> Gridbw_topology.Fabric.t) -> Gridbw_obs.Event.t list ->
  (t, error) result
(** [ports] is a store header's ingress and egress counts: the prefix
    must give each of exactly these ports a capacity, and a missing
    prefix is a torn one.  Without [ports] a side has as many ports as
    its highest named one + 1, and a stream with no prefix is read
    against [default ()] (called only then). *)

val iter_commitments :
  (Gridbw_alloc.Allocation.t * float) list ->
  (Gridbw_request.Request.t -> float -> float -> float -> unit) ->
  unit
(** [f request from until rate] for every interval a booking holds both
    its ports for (one per profile step, or its [\[sigma, tau)] at
    [bw]), cut at the booking's paired time; an interval cut to nothing
    is skipped.  Given a journal's [bookings], that is what the journal
    had each port carry over its whole history, a cancelled booking
    until its cancel. *)

val decode : string -> (Gridbw_obs.Event.t list, string) result
(** The events of a trace of binary frames; span frames
    ({!Gridbw_obs.Span.frame_tag}) are skipped.  [Error] names the first
    bad record (1-based). *)

val of_string :
  ?default:(unit -> Gridbw_topology.Fabric.t) -> string -> (t, string) result
(** {!decode}, then {!of_events}; the error is {!describe}d. *)

val of_file : ?default:(unit -> Gridbw_topology.Fabric.t) -> string -> (t, string) result

val monotone : Gridbw_obs.Event.t list -> bool
(** Timestamps are non-decreasing in stream order — guaranteed for plain
    (non-engine) runs of every heuristic. *)

val summary : t -> Summary.t
(** The run's summary against [fabric], from the stream alone. *)
