(** First-class scheduler interface.

    Every admission strategy in the repo — the rigid heuristics of section
    4, the flexible GREEDY/WINDOW family of section 5, and the fault
    injector's degraded-fabric variants — answers the same question: given
    a workload spec and the concrete request trace drawn from it, which
    requests are accepted and at what allocation?  {!S} captures exactly
    that, so drivers ({!Gridbw_experiments}, bin/gridbw) can iterate over a
    list of schedulers instead of matching on per-heuristic constructors. *)

module type S = sig
  val name : string
  (** Stable label used in tables, CSV columns and the CLI. *)

  val run :
    ?ctx:Runtime.ctx ->
    Gridbw_workload.Spec.t ->
    Gridbw_request.Request.t list ->
    Types.result
  (** Decide every request of the trace against the spec's fabric.  The
      trace is normally drawn from the same spec ({!Gridbw_workload.Gen}),
      but only [spec.fabric] (and, for batch heuristics, timing derived
      from the requests themselves) is consulted.  [ctx] is the runtime
      context ({!Runtime.ctx}): decisions feed its telemetry counters
      and, when a trace sink is attached, its event stream; a journal attached to [ctx.obs]
      ({!Gridbw_store.Store.attach}) records them durably. *)
end

type t = (module S)

val name : t -> string

val run :
  ?ctx:Runtime.ctx ->
  t ->
  Gridbw_workload.Spec.t ->
  Gridbw_request.Request.t list ->
  Types.result

val make :
  name:string ->
  (?ctx:Runtime.ctx ->
  Gridbw_workload.Spec.t ->
  Gridbw_request.Request.t list ->
  Types.result) ->
  t
(** Wrap a function as a scheduler. *)

val of_rigid : [ `Fcfs | `Fifo_blocking | `Slots of Rigid.cost_kind ] -> t
(** The section-4 heuristics, named as {!Rigid.heuristic_name}. *)

val of_flexible : [ `Greedy | `Window of float | `Window_deferred of float ] -> Policy.t -> t
(** The section-5 heuristics; the name combines {!Flexible.heuristic_name}
    and {!Policy.name}, e.g. ["window(400)/f=0.80"]. *)

val rigid_all : t list
(** All five rigid schedulers, in the paper's presentation order. *)

val flexible_all : ?policy:Policy.t -> ?step:float -> unit -> t list
(** The three flexible schedulers (GREEDY, WINDOW, WINDOW-deferred) under
    one policy (default [Min_rate]) and batching step (default 400 s, the
    paper's setting). *)

val shipped : ?step:float -> unit -> t list
(** Every registered engine a conformance sweep should drive: the five
    rigid heuristics plus the flexible family under [Min_rate] and
    [Fraction_of_max 0.8].  The fault injector's degraded-fabric variants
    are script-dependent and enumerated by the caller
    ({!Gridbw_fault.Injector.scheduler}). *)

val find : t list -> string -> t option
(** First scheduler with the given {!name}, if any. *)
