(** Decisions and results shared by all scheduling heuristics. *)

type reason =
  | Port_saturated  (** an ingress or egress port had no room *)
  | Deadline_unreachable
      (** by decision time, even [MaxRate] could not finish within the
          window (only arises when decisions are delayed, e.g. WINDOW) *)
  | Revoked
      (** accepted in an earlier time slice but evicted later (slot
          heuristics of section 4.2) *)

type decision = Accepted of Gridbw_alloc.Allocation.t | Rejected of reason

type result = {
  all : Gridbw_request.Request.t list;  (** every submitted request *)
  accepted : Gridbw_alloc.Allocation.t list;  (** in decision order *)
  rejected : (Gridbw_request.Request.t * reason) list;
}

val accept_rate : result -> float
(** accepted / total; 0 for an empty result. *)

val accepted_ids : result -> int list
(** Sorted ids of accepted requests. *)

val decision_of : result -> int -> decision option
(** Decision for request id, if the request is part of the result. *)

val is_consistent : result -> bool
(** Every request appears in exactly one of [accepted] / [rejected]. *)

val reason_name : reason -> string
(** The wire and trace spelling, e.g. ["port-saturated"]. *)

val pp_reason : Format.formatter -> reason -> unit
val pp : Format.formatter -> result -> unit
