(** Offline aggregation of request trace spans ([gridbw trace-report]).

    Reads any trace of binary frames, keeps the span records and skips
    everything else (events, WAL records), then
    renders a per-stage latency breakdown (exact nearest-rank
    p50/p95/p99 of the sorted samples, {!Gridbw_obs.Metrics.rank_of})
    and the top-K slowest requests. *)

type t

val of_string : string -> (t, string) result
val load : string -> (t, string) result
(** Whole-file read + {!of_string}; [Error] is the I/O or decode
    failure. *)

val spans : t -> Gridbw_obs.Span.t list
(** In file order. *)

val render : ?top:int -> t -> string
(** The report: per-stage table (count, p50/p95/p99, total, share of
    stage time), the stage-sum and end-to-end distributions with their
    p50 coverage ratio, and the [top] (default 10) slowest spans. *)
