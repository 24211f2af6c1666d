(** A fabric access point, keyed by side.

    The paper's constraint set (1) is symmetric in the ingress and egress
    directions, and so is every query the admission heuristics ask of the
    ledger ("is there headroom on this port over this interval").  [Port.t]
    carries the side together with the index so those queries exist once,
    instead of as [ingress_*]/[egress_*] accessor pairs. *)

type t = Ingress of int | Egress of int

val ingress : int -> t
val egress : int -> t

val pp : Format.formatter -> t -> unit
