(** Long-lived requests — the companion problem of the paper (section 2.1
    and 3, citing Marchal et al. [13, 14]).

    A long-lived request is an indefinite flow between an ingress and an
    egress point at a constant bandwidth; there is no time dimension, the
    scheduler simply picks the largest feasible subset.  The general
    problem is NP-hard, but the paper notes the {e uniform} case
    ([bw(r) = b] for all [r]) is polynomial: it reduces to a bipartite
    degree-constrained subgraph problem, solved here by max-flow
    ({!Gridbw_flow.Dinic}). *)

type request = { id : int; ingress : int; egress : int; bw : float }

val request : id:int -> ingress:int -> egress:int -> bw:float -> request
(** Validates [bw > 0] and finite. *)

type result = {
  accepted : request list;  (** in id order *)
  rejected : request list;
}

val feasible : Gridbw_topology.Fabric.t -> request list -> bool
(** Σ bw through each port within its capacity (relative [1e-9] slack). *)

val optimal_uniform : Gridbw_topology.Fabric.t -> bw:float -> request list -> result
(** Maximum-cardinality feasible subset when every request demands exactly
    [bw] (relative [1e-9] tolerance; raises [Invalid_argument] otherwise).
    Builds the 3-layer flow network source → ingress (capacity
    [⌊B_in/bw⌋]) → egress ([⌊B_out/bw⌋]) → sink with one unit edge per
    request, and reads the accepted set off the integral max flow. *)

val greedy : Gridbw_topology.Fabric.t -> request list -> result
(** Non-uniform heuristic: requests sorted by increasing bandwidth (ties
    by id) and packed against live port counters. *)

val exact : ?node_budget:int -> Gridbw_topology.Fabric.t -> request list -> int * int list * bool
(** Branch-and-bound optimum [(count, sorted ids, proved_optimal)] for the
    general (NP-hard) non-uniform case; small instances only. *)
