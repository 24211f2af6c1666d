(** Experiment E5 — the §5.3 tuning-factor study: sweep f from 0 to 1 and
    measure, for GREEDY and WINDOW(400) in an underloaded and an overloaded
    regime, the accept rate, the mean speedup over MinRate, and the
    fraction of accepted requests that actually got their [f × MaxRate]
    guarantee.

    Expected shape: accept-rate loss roughly linear in f under light load;
    speedup grows with f — the knob trades admission for transfer time
    without changing the allocation algorithm. *)

type row = {
  f : float;
  heuristic : string;
  regime : string;  (** "underloaded" or "overloaded" *)
  accept_rate : float;
  mean_speedup : float;
  guaranteed_fraction : float;  (** #guaranteed / accepted (§2.3) *)
}

val run : ?fs:float list -> Runner.params -> row list
val to_table : row list -> Gridbw_report.Table.t
