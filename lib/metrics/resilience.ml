module Request = Gridbw_request.Request

type outcome = {
  request : Request.t;
  admitted : bool;
  aborted : bool;
  delivered : float;
  finished_at : float option;
  preemptions : int;
  violation_time : float;
}

type t = {
  total : int;
  admitted : int;
  preempted : int;
  aborted : int;
  recovered : int;
  recovered_fraction : float;
  guarantee_kept : float;
  violation_minutes : float;
  goodput : float;
  delivered_fraction : float;
}

let zero =
  {
    total = 0;
    admitted = 0;
    preempted = 0;
    aborted = 0;
    recovered = 0;
    recovered_fraction = 1.0;
    guarantee_kept = 1.0;
    violation_minutes = 0.0;
    goodput = 0.0;
    delivered_fraction = 0.0;
  }

(* Same deadline slack as Allocation.meets_deadline. *)
let finished_by_deadline o =
  match o.finished_at with
  | None -> false
  | Some f -> f <= (o.request.Request.tf *. (1. +. 1e-9)) +. 1e-9

let compute ~span outcomes =
  match outcomes with
  | [] -> zero
  | _ ->
      let total = List.length outcomes in
      let count p = List.length (List.filter p outcomes) in
      let admitted = count (fun (o : outcome) -> o.admitted) in
      let aborted = count (fun (o : outcome) -> o.aborted) in
      (* Aborts are end-host failures, not broken network guarantees:
         they are excluded from the recovery and guarantee ratios. *)
      let preempted = count (fun (o : outcome) -> o.preemptions > 0 && not o.aborted) in
      let recovered =
        count (fun (o : outcome) -> o.preemptions > 0 && (not o.aborted) && finished_by_deadline o)
      in
      let kept = count (fun (o : outcome) -> o.admitted && (not o.aborted) && finished_by_deadline o) in
      let guaranteed = admitted - aborted in
      let violation_minutes =
        List.fold_left (fun acc (o : outcome) -> acc +. o.violation_time) 0.0 outcomes /. 60.0
      in
      let delivered = List.fold_left (fun acc (o : outcome) -> acc +. o.delivered) 0.0 outcomes in
      let promised =
        List.fold_left
          (fun acc (o : outcome) -> if o.admitted then acc +. o.request.Request.volume else acc)
          0.0 outcomes
      in
      {
        total;
        admitted;
        preempted;
        aborted;
        recovered;
        recovered_fraction =
          (if preempted = 0 then 1.0 else float_of_int recovered /. float_of_int preempted);
        guarantee_kept =
          (if guaranteed <= 0 then 1.0 else float_of_int kept /. float_of_int guaranteed);
        violation_minutes;
        goodput = (if span > 0. then delivered /. span else 0.0);
        delivered_fraction = (if promised > 0. then delivered /. promised else 0.0);
      }
