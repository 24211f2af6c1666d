(** Exact solver for MAX-REQUESTS-DEC instances (Definition 1).

    Uniform unit-size requests over integer time steps: request [r] may be
    scheduled at any single step [sigma ∈ [ts, tf)] where it consumes one
    capacity unit at its ingress and egress ports.  Capacities are small
    integers.  This is the instance shape produced by the Theorem 1
    reduction from 3-Dimensional Matching. *)

type ureq = { id : int; ingress : int; egress : int; ts : int; tf : int }
(** Window [\[ts, tf)): the request occupies exactly one step in it. *)

type instance = { caps_in : int array; caps_out : int array; reqs : ureq array }

type solution = {
  count : int;
  placements : (int * int) list;  (** (request id, step) for accepted *)
  optimal : bool;  (** false iff the node budget was exhausted *)
  nodes : int;
}

val solve : ?node_budget:int -> instance -> solution
(** Branch and bound over (placement | reject) decisions.  Identical
    requests (same ports and window) are canonicalised — forced into
    non-decreasing placements and reject-monotone order — which collapses
    the exponential symmetry of the Theorem 1 reduction's special
    requests.  Default budget: 20 million nodes. *)

val feasible : instance -> (int * int) list -> bool
(** Do the placements respect windows and per-step port capacities? *)
