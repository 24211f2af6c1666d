(** Random distributions on top of {!Rng}. *)

val exponential : Rng.t -> mean:float -> float
(** Exponential with the given mean (inter-arrival times of a Poisson
    process of rate [1 /. mean]).  Requires [mean > 0]. *)

val poisson : Rng.t -> mean:float -> int
(** Poisson-distributed count.  Uses Knuth's product method for small means
    and a normal approximation above 30 to stay O(1). *)

val normal : Rng.t -> mu:float -> sigma:float -> float
(** Gaussian via Box-Muller. *)

val pareto : Rng.t -> scale:float -> shape:float -> float
(** Pareto (heavy-tailed sizes), [scale > 0], [shape > 0]. *)

val discrete : Rng.t -> ('a * float) array -> 'a
(** Weighted choice; weights must be non-negative with a positive sum. *)

val arrival_times : Rng.t -> rate:float -> horizon:float -> float list
(** Event times of a Poisson process of intensity [rate] on
    [\[0, horizon)], in increasing order. *)
