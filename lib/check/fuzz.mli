(** Budgeted fuzzing driver over the conformance harness.

    Deterministic from [(seed, budget)]: scenario [i] draws family
    [families.(i mod n)] and a seed derived from the base seed, so a CI
    failure reproduces locally with the same flags.  Each failure is
    minimized ({!Shrink.minimize}, re-checking only the engine that broke
    when it can be identified) and can be serialized as a self-contained
    counterexample bundle:

    - [workload.csv] — the minimized request trace
      ({!Gridbw_workload.Trace} format, replayable with [gridbw run]);
    - [events.bin] — the failing engine's decision trace in binary
      frames, prefixed with [Capacity] events describing the scenario
      fabric so [gridbw replay-trace] rebuilds the exact summary without
      guessing the topology (static engines only);
    - [meta.json] — family / seed / size, the findings, the fault script
      and the suggested replay commands. *)

type failure = {
  scenario : Scenario.t;  (** minimized *)
  findings : Harness.finding list;  (** findings on the minimized scenario *)
}

type outcome = {
  scenarios : int;  (** scenarios generated (= budget) *)
  failures : failure list;
}

val run :
  ?engines:Gridbw_core.Scheduler.t list ->
  ?families:Scenario.family list ->
  ?min_size:int ->
  ?max_size:int ->
  ?log:(string -> unit) ->
  budget:int ->
  seed:int64 ->
  unit ->
  outcome
(** Generate and check [budget] scenarios (sizes uniform-ish in
    [\[min_size, max_size\]], defaults 5–45).  [engines] overrides the
    default sweep ({!Harness.engines_for}) — the mutant tests fuzz a
    single deliberately broken scheduler this way.  [log] receives
    progress lines (a found-failure notice per counterexample). *)

val write_bundle :
  ?engines:Gridbw_core.Scheduler.t list -> dir:string -> index:int -> failure -> string
(** Write the bundle under [dir/case-<index>/] (directories created as
    needed) and return that path.  [engines] extends the engine pool used
    to re-run the failing engine for [events.bin] (needed when the
    failure came from a caller-supplied engine such as a test mutant). *)

val replay_hint : string -> string option
(** Best-effort [gridbw run] invocation reproducing the named engine on a
    bundle's [workload.csv]; [None] for engines without a CLI spelling
    (fault variants, test mutants). *)
