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

(** {2 Histograms} *)

type histogram

val histogram : t -> string -> histogram

val observe : histogram -> float -> unit
(** Negative and non-finite samples are counted in the lowest bucket.
    Allocates nothing. *)

val bucket_of : float -> int
(** The bucket a sample lands in: 0 for samples [<= 1] and non-finite
    ones, else the [e] of [Float.frexp v] ([2^(e-1) <= v < 2^e]), capped
    at 63.  Read from the float's bits; allocates nothing. *)

val hist_count : histogram -> int
val hist_sum : histogram -> float

val hist_buckets : histogram -> (float * int) list
(** Non-empty buckets as [(upper_bound, count)], ascending. *)

val rank_of : total:int -> float -> int
(** The nearest rank [ceil (q·total)] of quantile [q], clamped to
    [\[1, total\]]; a product [q·total] an ulp above an integer does not
    overshoot it. *)

(** {2 Keys}

    A key names one instrument and is declared once, at module level.
    Its first use in a registry finds or creates the instrument by name,
    exactly as the accessors above do, and caches it in the key's slot;
    every later use is one array read.  Nothing is registered before
    that first use, so a dump lists the same series whether call sites
    use keys or names.  Two keys with the same name reach the same
    instrument. *)

type 'a key

val counter_key : string -> counter key
val gauge_key : string -> gauge key
val histogram_key : string -> histogram key
val counter_of : t -> counter key -> counter
val gauge_of : t -> gauge key -> gauge
val histogram_of : t -> histogram key -> histogram

(** {2 Dumps}

    The rendering lists instruments in name order, so output is
    deterministic for a given set of observations. *)

val to_prometheus : t -> string
(** Prometheus text exposition: [# TYPE] lines, cumulative
    [name_bucket{le="..."}] series plus [_sum]/[_count] for histograms. *)
