(** Differential conformance harness.

    Drives every {!Gridbw_core.Scheduler.t} over a
    {!Scenario}, checks each run with {!Reference.audit} (decision-stream
    bookkeeping plus {!Gridbw_metrics.Validate}, the one check of
    constraint set (1)), and applies metamorphic properties that hold for
    the shipped engines by construction:

    - {b M1 determinism} — two runs on identical input take identical
      decisions (all engines; catches hidden state).
    - {b M2 permutation invariance} — every engine sorts its input into
      arrival order with total [(ts, MinRate, id)] tie-breaking, so a
      shuffled request list must yield the same decisions.
    - {b M3 ×2 scaling} — doubling every capacity, volume and rate cap is
      exact in binary floating point and preserves every comparison the
      engines make, so decisions are identical with bandwidths exactly
      doubled ({!Scenario.scale2}).
    - {b M4 accepted-subset stability} — for GREEDY, WINDOW and FCFS,
      feeding back only the accepted requests re-accepts all of them with
      identical allocations (rejected requests never touched the ledger).
      Not applied to slot sweeps (slice boundaries come from every
      request) nor blocking FIFO (rejected requests occupy the queue).
    - {b M5 empty-script injector parity} — the fault injector with no
      fault events must be bit-identical to the fault-free GREEDY /
      WINDOW runs.

    Note what is {e not} here: capacity monotonicity of the accept count.
    It sounds plausible but is false for greedy admission — added capacity
    can admit one large early request that displaces two small later ones
    — so asserting it would "catch" correct engines.

    Fault runs are audited at the service level ({!Reference.audit_services}
    under the script's revised capacities): once preemption recycles a
    reservation, the initial admission set is no longer statically
    checkable against the nominal fabric.  The service audit applies to
    the GREEDY injector only — WINDOW inherits retroactive booking (a
    batch boundary books transfers over already-elapsed intervals against
    the fabric as of the boundary), so its recorded services may
    legitimately overlap a past degradation; it is checked on outcome
    bookkeeping and per-request admission constraints instead, matching
    the contract in {!Gridbw_fault.Injector}. *)

type finding = { engine : string; check : string; detail : string }

val pp_finding : Format.formatter -> finding -> unit

val default_step : float
(** WINDOW batching step used by the harness engines (11 s — several
    batches across a scenario's 0–100 s horizon). *)

val engines_for : Scenario.t -> Gridbw_core.Scheduler.t list
(** {!Gridbw_core.Scheduler.shipped} with {!default_step}, plus the
    injector's GREEDY / WINDOW variants bound to the scenario's fault
    script when it has one. *)

val check : ?engines:Gridbw_core.Scheduler.t list -> Scenario.t -> finding list
(** Everything above for one scenario.  [engines] overrides
    {!engines_for} (used to fuzz a single engine, or a deliberately broken
    one from the test suite). *)
