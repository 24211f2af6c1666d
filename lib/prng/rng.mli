(** Deterministic, splittable pseudo-random number generator.

    The generator is xoshiro256** (Blackman & Vigna), seeded through a
    splitmix64 expansion of a single [int64] seed.  Every simulation in
    gridbw takes its randomness from an explicit [Rng.t] value so that all
    experiments are reproducible from a seed printed in their output, and so
    that independent streams (arrivals, volumes, routes, ...) can be derived
    with {!split} without sharing state. *)

type t
(** Mutable generator state. *)

val create : ?seed:int64 -> unit -> t
(** [create ~seed ()] builds a generator from [seed] (default
    [0x9E3779B97F4A7C15L]).  Equal seeds yield equal streams. *)


val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform on [\[0, n)]. Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform on [\[lo, hi\]] inclusive. Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t x] is uniform on [\[0, x)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform on [\[lo, hi)]. Requires [lo <= hi]. *)

val bool : t -> bool
(** Fair coin. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniform element of a non-empty array. Raises [Invalid_argument] on an
    empty array. *)
