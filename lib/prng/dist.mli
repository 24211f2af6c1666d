(** Random distributions on top of {!Rng}. *)

val exponential : Rng.t -> mean:float -> float
(** Exponential with the given mean (inter-arrival times of a Poisson
    process of rate [1 /. mean]).  Requires [mean > 0]. *)
