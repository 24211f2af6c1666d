(** Failure-aware metrics for runs under fault injection.

    The fault subsystem ([lib/fault]) records, for every request, what
    actually happened to its transfer — admission, delivered bytes,
    preemptions, recovery, completion time — as an {!outcome}; this module
    turns a run's outcomes into the aggregate resilience statistics the
    E16 experiment reports.  It is deliberately independent of the fault
    model itself so any driver can produce outcomes. *)

type outcome = {
  request : Gridbw_request.Request.t;
  admitted : bool;  (** was ever granted an allocation *)
  aborted : bool;  (** its end host failed mid-transfer *)
  delivered : float;  (** MB actually transferred before the deadline *)
  finished_at : float option;  (** completion time, if the volume completed *)
  preemptions : int;  (** times an allocation of this request was revoked *)
  violation_time : float;
      (** seconds an admitted, non-aborted transfer spent without service
          between a preemption and either its re-admission or its
          deadline *)
}

type t = {
  total : int;
  admitted : int;
  preempted : int;  (** requests hit by >= 1 preemption (aborts excluded) *)
  aborted : int;
  recovered : int;  (** preempted requests that still finished by deadline *)
  recovered_fraction : float;  (** recovered / preempted; 1 if none preempted *)
  guarantee_kept : float;
      (** fraction of admitted, non-aborted requests whose full volume
          completed by the original deadline — the paper's admission
          guarantee, now under faults *)
  violation_minutes : float;  (** Σ violation_time / 60 *)
  goodput : float;  (** delivered MB / span, MB/s *)
  delivered_fraction : float;  (** delivered MB / promised (admitted) MB *)
}

val compute : span:float -> outcome list -> t
(** Aggregate; [span] is the workload's time span (for goodput). *)
