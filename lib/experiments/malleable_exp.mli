(** Experiment E17 — MALLEABLE accept rates under overload, and the
    small-instance gap to the exact malleable optimum.

    {b Sweep} ({!run}): the §5.3 flexible workload at four overloaded
    operating points (mean inter-arrival 0.1–0.2 s, offered load ~16–31),
    GREEDY and WINDOW against the MALLEABLE engine with and without
    in-advance booking.  Expected shape: MALLEABLE's accept rate is at
    least GREEDY's on every row and strictly higher on at least one —
    step profiles can thread volume through busy stretches a constant
    rate cannot.  This dominance is an {e overload} property: under
    moderate load a large profile-only-feasible transfer occasionally
    displaces several later small ones (see EXPERIMENTS.md), which is why
    the shipped operating points sit deep in the rejecting regime.

    {b Gap} ({!gap}): random small 1×1 instances where
    {!Gridbw_core.Exact.max_requests_malleable}'s flow feasibility check
    is exact, reporting the engine's accepted count against the optimum
    (the E6 analogue for profiles). *)

type row = {
  mean_interarrival : float;
  offered_load : float;
  greedy : float;  (** GREEDY / MIN BW accept rate *)
  window : float;  (** WINDOW (default 100 s step) / MIN BW accept rate *)
  malleable : float;  (** MALLEABLE, decide-at-arrival *)
  malleable_ba : float;  (** MALLEABLE with in-advance booking (default 30 s) *)
}

val run :
  ?interarrivals:float list ->
  ?step:float ->
  ?book_ahead:float ->
  Runner.params ->
  row list

val to_table : row list -> Gridbw_report.Table.t

type gap_row = {
  size : int;
  trials : int;
  engine_accepted : int;  (** summed over trials *)
  exact_count : int;  (** summed over trials *)
  all_optimal : bool;  (** no trial exhausted the solver's node budget *)
}

val gap : ?sizes:int list -> ?trials:int -> seed:int64 -> unit -> gap_row list
val gap_table : gap_row list -> Gridbw_report.Table.t
