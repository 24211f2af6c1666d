(** Ablation A1 — how much of the WINDOW heuristic's gain is {e knowledge}
    (seeing a whole batch before committing) versus {e batching delay}?

    The paper's Algorithm 3 packs the arrivals of each interval while
    letting every accepted request keep its own start time — pure
    lookahead.  The deferred variant ({!Gridbw_core.Flexible.window_deferred})
    additionally delays each start to its batch boundary, as a real
    non-clairvoyant controller would have to.  Sweeping the interval
    length on a fixed heavy workload separates the two effects: lookahead
    improves monotonically with the interval, while the deferred variant
    degrades once the delay approaches typical transmission windows. *)

val run :
  ?steps:float list -> ?mean_interarrival:float -> Runner.params -> Gridbw_report.Figure.t
(** Accept rate vs interval length for WINDOW, WINDOW-DEFERRED and the
    GREEDY reference (flat); default inter-arrival 0.2 s (heavy load). *)
