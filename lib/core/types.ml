module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation

type reason = Port_saturated | Deadline_unreachable | Revoked
type decision = Accepted of Allocation.t | Rejected of reason

type result = {
  all : Request.t list;
  accepted : Allocation.t list;
  rejected : (Request.t * reason) list;
}

module Log = struct
  (* A growable array in chunks of [chunk] cells, small enough to be
     allocated in the minor heap, so a chunk mostly fills while it is
     young and its stores add no remembered-set entries; growing copies
     nothing.  (One flat array, doubled in the major heap, made GREEDY
     slower.)  [cur] is filled up to [n]; [full] holds the filled chunks,
     newest first. *)
  type 'a chunks = { mutable cur : 'a array; mutable n : int; mutable full : 'a array list }

  let chunk = 256

  let chunks () = { cur = [||]; n = 0; full = [] }

  let push c x =
    if c.n = Array.length c.cur then begin
      if c.n > 0 then c.full <- c.cur :: c.full;
      c.cur <- Array.make chunk x;
      c.n <- 0
    end;
    Array.unsafe_set c.cur c.n x;
    c.n <- c.n + 1

  (* The cells in push order, consed from the back. *)
  let to_list c =
    let l = ref [] in
    for i = c.n - 1 downto 0 do
      l := Array.unsafe_get c.cur i :: !l
    done;
    List.iter
      (fun a ->
        for i = chunk - 1 downto 0 do
          l := Array.unsafe_get a i :: !l
        done)
      c.full;
    !l

  type t = { accepted : Allocation.t chunks; rejected : (Request.t * reason) chunks }

  let create () = { accepted = chunks (); rejected = chunks () }

  let add t (r : Request.t) = function
    | Accepted a -> push t.accepted a
    | Rejected reason -> push t.rejected (r, reason)

  let result ?(booked = []) t all =
    { all; accepted = booked @ to_list t.accepted; rejected = to_list t.rejected }
end

let accept_rate r =
  match r.all with
  | [] -> 0.0
  | _ -> float_of_int (List.length r.accepted) /. float_of_int (List.length r.all)

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
