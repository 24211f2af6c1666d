module Request = Gridbw_request.Request
module Allocation = Gridbw_alloc.Allocation

type t = Smallest_residual | Latest_deadline | Proportional_squeeze

let all = [ Smallest_residual; Latest_deadline; Proportional_squeeze ]

let name = function
  | Smallest_residual -> "smallest-residual"
  | Latest_deadline -> "latest-deadline"
  | Proportional_squeeze -> "proportional-squeeze"

let id_of (a : Allocation.t) = a.Allocation.request.Request.id
let deadline_of (a : Allocation.t) = a.Allocation.request.Request.tf

let order t candidates =
  match t with
  | Proportional_squeeze -> List.map fst candidates
  | Smallest_residual ->
      List.sort
        (fun (a, ra) (b, rb) ->
          match Float.compare ra rb with 0 -> Int.compare (id_of a) (id_of b) | c -> c)
        candidates
      |> List.map fst
  | Latest_deadline ->
      List.sort
        (fun (a, _) (b, _) ->
          match Float.compare (deadline_of b) (deadline_of a) with
          | 0 -> Int.compare (id_of a) (id_of b)
          | c -> c)
        candidates
      |> List.map fst

let select t ~need candidates =
  match t with
  | Proportional_squeeze ->
      (* Squeeze by full re-pack: every transfer on the degraded port is
         renegotiated, so the residuals are re-admitted at whatever rates
         the shrunk capacity supports. *)
      order t candidates
  | Smallest_residual | Latest_deadline ->
      let rec take shed acc = function
        | [] -> List.rev acc
        | _ when shed >= need -. 1e-12 -> List.rev acc
        | a :: rest -> take (shed +. a.Allocation.bw) (a :: acc) rest
      in
      take 0.0 [] (order t candidates)
