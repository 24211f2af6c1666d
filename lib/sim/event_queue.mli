(** Priority queue of timestamped events.

    A binary min-heap keyed by time.  Ties are broken by insertion order
    (FIFO among simultaneous events), which keeps simulations deterministic
    regardless of heap internals. *)

type 'a t

val create : ?initial_capacity:int -> unit -> 'a t

val push : 'a t -> time:float -> 'a -> unit
(** Insert an event at [time].  [time] must be finite. *)

val pop : 'a t -> (float * 'a) option
(** Remove and return the earliest event, FIFO among equal times. *)

val peek : 'a t -> (float * 'a) option
(** Earliest event without removing it. *)

val next_time : 'a t -> float
(** Time of the earliest event; [infinity] when the queue is empty.
    Allocates nothing. *)

val take : 'a t -> 'a
(** Remove the earliest event, FIFO among equal times, and return its
    payload without allocating.  Raises [Invalid_argument] on an empty
    queue. *)

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
(** Fold over the queued payloads in no particular order. *)

val is_empty : 'a t -> bool
val length : 'a t -> int
val clear : 'a t -> unit

val drain : 'a t -> (float * 'a) list
(** Pop everything; returns events in chronological order. *)
