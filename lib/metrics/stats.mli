(** Streaming summary statistics (Welford) and replication aggregates. *)

module Welford : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  (** 0 when empty. *)

  val variance : t -> float
  (** Unbiased sample variance; 0 for fewer than two samples. *)

  val stddev : t -> float
  val min : t -> float
  (** [+inf] when empty. *)

  val max : t -> float
  (** [-inf] when empty. *)
end

type aggregate = {
  n : int;
  mean : float;
  stddev : float;
  ci95 : float;  (** normal-approximation 95 % half-width, [1.96 σ/√n] *)
  min : float;
  max : float;
}

val aggregate : float list -> aggregate
(** Summary of replication results; zeros for the empty list. *)

val mean : float list -> float
