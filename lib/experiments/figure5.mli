(** Experiment E2 — paper Figure 5: FCFS (GREEDY) versus the interval-based
    WINDOW heuristic at several window lengths, on a heavily loaded network
    (mean inter-arrival 0.1–5 s), bandwidth policy f = 1.

    Expected shape (§5.3): WINDOW well above GREEDY throughout; accept rate
    grows with the window length; GREEDY under ~20 % while large windows
    pass 50 %. *)

val run :
  ?interarrivals:float list -> ?steps:float list -> Runner.params -> Gridbw_report.Figure.t
