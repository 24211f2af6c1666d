(** Non-homogeneous Poisson arrivals for diurnal grid workloads.

    Grid traffic is not stationary: §1's data-grid scenario moves nightly
    experiment output in bursts.  This module draws arrival times from an
    arbitrary intensity function by Lewis-Shedler thinning and builds
    request lists with the same per-request marginals as {!Gen} but a
    time-varying rate. *)

type intensity = float -> float
(** Arrival rate (requests/s) as a function of time; must be bounded by
    the [peak] passed to the sampler and non-negative. *)

val day_night : base:float -> peak:float -> period:float -> intensity
(** Sinusoidal day/night cycle: [base] at the trough, [peak] at the crest,
    crest at [period/2].  Requires [0 <= base <= peak] and [period > 0]. *)

val arrival_times :
  Gridbw_prng.Rng.t -> intensity -> peak:float -> horizon:float -> float list
(** Thinning sampler: arrival instants on [\[0, horizon)), increasing.
    [peak] must dominate the intensity on the horizon (checked pointwise
    as it samples; raises [Invalid_argument] when violated). *)

val generate :
  Gridbw_prng.Rng.t ->
  Spec.t ->
  intensity ->
  peak:float ->
  horizon:float ->
  Gridbw_request.Request.t list
(** Like {!Gen.generate} but with thinned arrivals over [horizon]: all
    arrival instants are drawn first, then one {!Gen.draw} per arrival.
    The spec's [mean_interarrival] and [count] are ignored (the process
    determines how many requests arrive). *)
