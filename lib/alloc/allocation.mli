(** An accepted request together with its assigned bandwidth and window.

    Acceptance fixes the assigned start [sigma], the constant transmission
    rate [bw], and hence the finish [tau = sigma + volume / bw]
    (section 2.1 of the paper).

    A malleable acceptance additionally carries a step-function
    {!Rate_profile.t}; [bw] then holds the mean rate over the profile
    span and [sigma]/[tau] bracket it, so constant-rate consumers keep a
    meaningful summary while profile-aware ones ({!Gridbw_metrics},
    the recovered capacity ledger, the reference model) use the exact
    steps. *)

type t = private {
  request : Gridbw_request.Request.t;
  bw : float;  (** assigned bandwidth, MB/s (mean rate when profiled) *)
  sigma : float;  (** assigned start time *)
  tau : float;  (** assigned finish time, [sigma + volume / bw] *)
  profile : Rate_profile.t option;
      (** step-function schedule for malleable acceptances; [None] for
          constant-rate engines *)
}

val make : request:Gridbw_request.Request.t -> bw:float -> sigma:float -> t
(** Validates [bw > 0] and [sigma >= ts(request)].
    Raises [Invalid_argument] otherwise.  [tau] is derived; [profile]
    is [None]. *)

val of_profile : request:Gridbw_request.Request.t -> Rate_profile.t -> t
(** Derives [sigma] from the profile start and [bw] as
    [volume / (finish - start)], then routes through {!make} so [tau]
    is computed by the same formula every replay path uses; attaches
    the profile.  Raises [Invalid_argument] on the same conditions as
    {!make} (e.g. profile starting before [ts]). *)

val meets_deadline : t -> bool
(** [tau <= tf] up to a relative [1e-9] slack — the paper's hard
    requirement for accepted requests. *)
