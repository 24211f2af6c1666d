(** Name-keyed registry of counters, gauges, and log-scale histograms.

    Instruments are found-or-created by name: asking twice for the same
    name returns the same instrument, so call sites never need to share
    handles.  Asking for an existing name with a different instrument
    kind raises [Invalid_argument].

    Histograms bucket by powers of two (64 buckets), which is plenty of
    resolution for latencies and probe counts while keeping observation
    O(1) with no configuration. *)

type t

val create : unit -> t

(** {2 Counters} *)

type counter

val counter : t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

(** {2 Gauges} *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float

(** {2 Histograms} *)

type histogram

val histogram : t -> string -> histogram

val observe : histogram -> float -> unit
(** Negative and non-finite samples are counted in the lowest bucket. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_buckets : histogram -> (float * int) list
(** Non-empty buckets as [(upper_bound, count)], ascending. *)

val percentile : histogram -> float -> float
(** [percentile h q] estimates the [q]-quantile ([q ∈ \[0,1\]],
    nearest-rank) of the observed samples: the estimate interpolates
    linearly inside the log₂ bucket holding rank [ceil (q·n)], so for
    non-negative samples it is guaranteed to land in the same
    power-of-two bucket as the exact order statistic (relative error
    < 2×).  [nan] on an empty histogram; raises [Invalid_argument] when
    [q] is outside [\[0,1\]]. *)

(** {2 Dumps}

    Both renderings list instruments in name order, so output is
    deterministic for a given set of observations. *)

val to_prometheus : t -> string
(** Prometheus text exposition: [# TYPE] lines, cumulative
    [name_bucket{le="..."}] series plus [_sum]/[_count] for histograms. *)

val to_json : t -> string
