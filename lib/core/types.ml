module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation

type reason = Port_saturated | Deadline_unreachable | Revoked
type decision = Accepted of Allocation.t | Rejected of reason

type result = {
  all : Request.t list;
  accepted : Allocation.t list;
  rejected : (Request.t * reason) list;
}

let accept_rate r =
  match r.all with
  | [] -> 0.0
  | _ -> float_of_int (List.length r.accepted) /. float_of_int (List.length r.all)

let accepted_ids r =
  List.map (fun (a : Allocation.t) -> a.request.Request.id) r.accepted |> List.sort Int.compare

let decision_of r id =
  match
    List.find_opt (fun (a : Allocation.t) -> a.Allocation.request.Request.id = id) r.accepted
  with
  | Some a -> Some (Accepted a)
  | None -> (
      match List.find_opt (fun ((req : Request.t), _) -> req.id = id) r.rejected with
      | Some (_, reason) -> Some (Rejected reason)
      | None -> None)

let is_consistent r =
  let module Iset = Set.Make (Int) in
  let ids_of l = Iset.of_list (List.map (fun (req : Request.t) -> req.id) l) in
  let all = ids_of r.all in
  let acc = ids_of (List.map (fun (a : Allocation.t) -> a.Allocation.request) r.accepted) in
  let rej = ids_of (List.map fst r.rejected) in
  Iset.cardinal acc = List.length r.accepted
  && Iset.cardinal rej = List.length r.rejected
  && Iset.is_empty (Iset.inter acc rej)
  && Iset.equal (Iset.union acc rej) all

let reason_name = function
  | Port_saturated -> "port-saturated"
  | Deadline_unreachable -> "deadline-unreachable"
  | Revoked -> "revoked"

let pp_reason ppf r = Format.pp_print_string ppf (reason_name r)

let pp ppf r =
  Format.fprintf ppf "@[<v>%d requests, %d accepted, %d rejected@]" (List.length r.all)
    (List.length r.accepted) (List.length r.rejected)
