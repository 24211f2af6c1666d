(** Dinic's maximum-flow algorithm on integer capacities.

    Substrate for the polynomial optimal scheduler of uniform long-lived
    requests (paper section 3, citing Marchal et al. [13, 14]): the
    accept/reject problem becomes a bipartite degree-constrained subgraph
    problem, i.e. a max-flow instance.  O(V²E) worst case, linear in
    practice on the shallow three-layer networks used here. *)

type t

val create : vertices:int -> t
(** Graph on vertices [0 .. vertices-1], no edges. *)

val add_edge : t -> src:int -> dst:int -> capacity:int -> int
(** Add a directed edge (plus its residual twin) and return an edge id
    usable with {!flow_on}.  Capacity must be non-negative; vertices in
    range.  Raises [Invalid_argument] otherwise. *)

val max_flow : t -> source:int -> sink:int -> int
(** Run Dinic from [source] to [sink]; returns the flow value.  May be
    called once per graph (the residual state persists so {!flow_on}
    reflects the computed flow). *)

val flow_on : t -> int -> int
(** Flow routed on the given edge id after {!max_flow}. *)

