(** Typed telemetry events emitted by the scheduler stack.

    One constructor per decision kind the stack can take: request arrival,
    admission accept/reject (with the rejecting port and its headroom at
    decision time), preemption, a fault-injector shed round, a capacity
    revision, and a sim-engine dispatch.  Events carry primitive fields
    only, so this library depends on nothing above the stdlib.

    [Arrival] and [Accept] embed the full request (and allocation) fields:
    the trace of a plain run is self-contained, and
    [gridbw replay-trace] can rebuild the exact summary from the trace
    alone.  [Arrival.seq] is the request's position in the caller's input
    list, so the replay can restore the original list order (float
    accumulation in the summary is order-sensitive). *)

type side = Ingress | Egress

type t =
  | Arrival of {
      time : float;
      seq : int;  (** position in the input request list *)
      id : int;
      ingress : int;
      egress : int;
      volume : float;
      ts : float;
      tf : float;
      max_rate : float;
    }
  | Accept of {
      time : float;
      id : int;
      ingress : int;
      egress : int;
      volume : float;
      ts : float;
      tf : float;
      max_rate : float;
      bw : float;  (** granted constant rate *)
      sigma : float;  (** transmission start *)
      shard : int option;  (** deciding shard in a sharded run, [None] otherwise *)
    }
  | Reject of {
      time : float;
      id : int;
      reason : string;  (** Types.pp_reason rendering, e.g. "port-saturated" *)
      port : (side * int) option;  (** the rejecting port, when one exists *)
      headroom : float option;  (** that port's spare bandwidth at decision time *)
      shard : int option;  (** deciding shard in a sharded run, [None] otherwise *)
    }
  | Preempt of { time : float; id : int; bw : float; shard : int option }
  | Reshape of {
      time : float;
      id : int;
      ingress : int;
      egress : int;
      volume : float;
      ts : float;
      tf : float;
      max_rate : float;
      profile : (float * float * float) array;
          (** the admitted step schedule, [(from_, until, rate)] per step *)
      revised : (int * (float * float * float) array) array;
          (** new profiles for already-admitted, not-yet-started transfers
              reshaped to open capacity for this admit, in commit (EDF)
              order.  The whole record applies atomically: the revisions
              and the admit are one journal entry. *)
      shard : int option;
    }
      (** a MALLEABLE acceptance: like [Accept] but carrying the full
          step-function profile, plus any pending-transfer reshaping the
          admission performed.  Emitted {e instead of} [Accept] by the
          malleable engine's profiled path. *)
  | Shed of {
      time : float;
      side : side;
      port : int;
      excess : float;  (** committed bandwidth above the revised capacity *)
      victims : int;  (** transfers preempted this round *)
    }
  | Capacity of { time : float; side : side; port : int; capacity : float }
  | Dispatch of { time : float; pending : int }
      (** sim-engine event dispatch; [pending] is the queue depth after the pop *)

val time : t -> float
val kind : t -> string
(** "arrival", "accept", "reject", "preempt", "reshape", "shed",
    "capacity", "dispatch". *)

val side_name : side -> string

val pp : Format.formatter -> t -> unit
(** Human-readable one-line rendering. *)
