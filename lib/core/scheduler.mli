(** First-class scheduler interface.

    Every admission strategy in the repo — the rigid heuristics of section
    4, the flexible GREEDY/WINDOW family of section 5, and the fault
    injector's degraded-fabric variants — answers the same question: given
    a fabric and a request trace, which requests are accepted and at what
    allocation?  {!t} captures exactly that, so drivers
    ({!Gridbw_experiments}, bin/gridbw) can iterate over a list of
    schedulers instead of matching on per-heuristic constructors. *)

type t = {
  name : string;  (** Stable label used in tables, CSV columns and the CLI. *)
  run :
    ?ctx:Runtime.ctx ->
    Gridbw_topology.Fabric.t ->
    Gridbw_request.Request.t list ->
    Types.result;
      (** Decide every request of the trace against the fabric.  [ctx] is
          the runtime context ({!Runtime.ctx}): decisions feed its
          telemetry counters and, when a trace sink is attached, its event
          stream; a journal attached to [ctx.obs]
          ({!Gridbw_store.Store.attach}) records them durably. *)
}

val name : t -> string

val run :
  ?ctx:Runtime.ctx ->
  t ->
  Gridbw_topology.Fabric.t ->
  Gridbw_request.Request.t list ->
  Types.result

val make :
  name:string ->
  (?ctx:Runtime.ctx ->
  Gridbw_topology.Fabric.t ->
  Gridbw_request.Request.t list ->
  Types.result) ->
  t
(** Wrap a function as a scheduler. *)

val of_rigid : [ `Fcfs | `Fifo_blocking | `Slots of Rigid.cost_kind ] -> t
(** The section-4 heuristics, named as {!Rigid.heuristic_name}. *)

val of_flexible : [ `Greedy | `Window of float | `Window_deferred of float ] -> Policy.t -> t
(** The section-5 heuristics; the name combines {!Flexible.heuristic_name}
    and {!Policy.name}, e.g. ["window(400)/f=0.80"]. *)

val shipped : ?step:float -> unit -> t list
(** Every registered engine a conformance sweep should drive: the five
    rigid heuristics plus the flexible family under [Min_rate] and
    [Fraction_of_max 0.8].  The fault injector's degraded-fabric variants
    are script-dependent and enumerated by the caller
    ({!Gridbw_fault.Injector.scheduler}). *)

val find : t list -> string -> t option
(** First scheduler with the given {!name}, if any. *)
