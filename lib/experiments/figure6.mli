(** Experiments E3/E4 — paper Figures 6 and 7: bandwidth-allocation
    policies (MIN BW and f × MaxRate for several f) under the FCFS/GREEDY
    heuristic (Fig. 6) and the WINDOW heuristic with 400 s intervals
    (Fig. 7), each on a heavy-load panel (inter-arrival 0.1–5 s) and an
    underloaded panel (3–20 s).

    Expected shape (§5.3): in underload, smaller guaranteed bandwidth
    accepts more requests; under heavy load the ordering compresses and
    partially inverts because full-rate transfers free the ports sooner. *)

val run :
  ?heavy:float list ->
  ?underloaded:float list ->
  kind:Runner.flex_kind ->
  id_prefix:string ->
  title:string ->
  Runner.params ->
  Gridbw_report.Figure.t * Gridbw_report.Figure.t
(** [(heavy panel, underloaded panel)], one series per policy. *)

val figure6 : Runner.params -> Gridbw_report.Figure.t * Gridbw_report.Figure.t
(** Fig. 6: GREEDY. *)

val figure7 : Runner.params -> Gridbw_report.Figure.t * Gridbw_report.Figure.t
(** Fig. 7: WINDOW with 400 s intervals. *)
