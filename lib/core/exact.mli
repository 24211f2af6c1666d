(** Exact branch-and-bound solver for MAX-REQUESTS on rigid requests.

    MAX-REQUESTS is NP-complete (Theorem 1), so this solver is exponential
    and only intended for small instances — it gives the optimum the
    polynomial heuristics of section 4 are measured against (experiment E6
    of DESIGN.md).  The rigid, flexible and malleable solvers run one
    depth-first search; they differ only in how a request may be
    accepted. *)

type solution = {
  count : int;  (** number of accepted requests *)
  accepted_ids : int list;  (** sorted ids of an optimal accepted set *)
  optimal : bool;  (** false when the node budget was exhausted *)
  nodes : int;  (** search nodes explored *)
}

val max_requests :
  ?node_budget:int ->
  Gridbw_topology.Fabric.t ->
  Gridbw_request.Request.t list ->
  solution
(** Depth-first branch and bound over accept/reject decisions in arrival
    order, feasibility-checked against a bandwidth ledger, pruned with the
    [accepted + remaining <= best] bound.  [node_budget] (default
    [5_000_000]) caps the explored nodes; when exhausted the incumbent is
    returned with [optimal = false]. *)

val max_requests_flexible :
  ?node_budget:int ->
  ?levels:float list ->
  Gridbw_topology.Fabric.t ->
  Gridbw_request.Request.t list ->
  solution
(** Offline optimum for {e flexible} requests starting at their arrival
    time: each request is rejected or accepted at one of a discrete grid
    of rates — [max (MinRate, level × MaxRate)] for [level ∈ levels]
    (default [{0, 0.5, 1}]; 0 means exactly MinRate) — checked against
    the time-indexed ledger.  Upper-bounds every on-line heuristic that
    keeps [sigma = ts] and assigns rates from the same grid (GREEDY and
    WINDOW under the corresponding policies).  Exponential with branching
    factor [1 + |levels|]; small instances only. *)

val max_requests_malleable :
  ?node_budget:int ->
  Gridbw_topology.Fabric.t ->
  Gridbw_request.Request.t list ->
  solution
(** Offline optimum count for {e malleable} (step-profile) reservations:
    a subset is feasible when every request can ship its full volume
    within [\[ts, tf\]] at time-varying rates in [\[0, MaxRate\]] under
    the port capacities.  Feasibility of a subset is decided per port by
    the classic preemptive-deadline max-flow reduction (source → request
    volume, request → alive elementary segment at [MaxRate × length],
    segment → sink at [capacity × length]); branch and bound over
    subsets in arrival order with the same count bound as
    {!max_requests}.

    On a 1×1 fabric the per-port check is exact, so the returned count
    is the malleable optimum.  On wider fabrics charging both endpoint
    ports at once is a fractional packing the flow relaxes, so the count
    is an {e upper bound} on the optimum — still a sound yardstick,
    since every heuristic's accepted set passes the per-port check.
    [node_budget] (default [100_000]) caps explored nodes; each node
    costs a handful of max-flow solves. *)
