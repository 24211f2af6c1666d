(** Experiment E1 — paper Figure 4: the four rigid heuristics (FIFO,
    CUMULATED-SLOTS, MINBW-SLOTS, MINVOL-SLOTS) compared on accept rate and
    on RESOURCE-UTIL across offered loads (§4.3 platform and volumes).

    Expected shape (§4.4): FIFO far worst (~10 % accept, <20 % utilization
    under load); MINVOL-SLOTS below the other two slot heuristics;
    CUMULATED-SLOTS ≈ MINBW-SLOTS on top. *)

val run : ?loads:float list -> Runner.params -> Gridbw_report.Figure.t * Gridbw_report.Figure.t
(** [(accept-rate figure, utilization figure)], one series per heuristic,
    x = offered load. *)
