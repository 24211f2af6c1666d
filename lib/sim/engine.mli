(** Minimal discrete-event simulation engine.

    Events are closures scheduled at absolute times; the engine pops them in
    chronological order (FIFO among ties) and advances a virtual clock.
    Handlers may schedule further events, including at the current time. *)

type t

val create : ?obs:Gridbw_obs.Obs.ctx -> ?start:float -> unit -> t
(** Fresh engine with the clock at [start] (default 0).  With [obs], every
    dispatch feeds the [engine_dispatches] counter and
    [engine_queue_depth] histogram; dispatches are not traced. *)

val now : t -> float
(** Current virtual time. *)

val schedule : t -> time:float -> (t -> unit) -> unit
(** Schedule a handler at absolute [time]; must not be in the past. *)

val after : t -> delay:float -> (t -> unit) -> unit
(** Schedule a handler [delay] seconds from now ([delay >= 0]). *)

val pending : t -> int
(** Number of events not yet executed. *)

val run : ?until:float -> t -> unit
(** Execute events until the queue is exhausted, or until the next event is
    strictly past [until] (the clock is then advanced to [until]). *)
