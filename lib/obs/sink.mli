(** Pluggable destinations for the event stream.

    A sink is just a pair of closures; the no-op sink makes emission one
    indirect call on a closure that does nothing, so a traced code path
    with tracing off costs a branch and nothing else. *)

type t = { emit : Event.t -> unit; flush : unit -> unit }

val noop : t
(** Drops every event.  [flush] does nothing. *)

val binary : out_channel -> t
(** Length-prefixed binary frames ({!Event_codec.Binary}), the one trace
    form.  [flush] flushes the channel (the caller closes it). *)

val binary_buffer : Buffer.t -> t
(** Same binary frames, appended to a buffer — for tests and benchmarks. *)

val tee : t -> t -> t
(** Send every event to both sinks. *)
