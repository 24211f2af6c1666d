type side = Ingress | Egress

type t =
  | Arrival of {
      time : float;
      seq : int;
      id : int;
      ingress : int;
      egress : int;
      volume : float;
      ts : float;
      tf : float;
      max_rate : float;
    }
  | Accept of {
      time : float;
      id : int;
      ingress : int;
      egress : int;
      volume : float;
      ts : float;
      tf : float;
      max_rate : float;
      bw : float;
      sigma : float;
      shard : int option;
    }
  | Reject of {
      time : float;
      id : int;
      reason : string;
      port : (side * int) option;
      headroom : float option;
      shard : int option;
    }
  | Preempt of { time : float; id : int; bw : float; shard : int option }
  | Reshape of {
      time : float;
      id : int;
      ingress : int;
      egress : int;
      volume : float;
      ts : float;
      tf : float;
      max_rate : float;
      profile : (float * float * float) array;
      revised : (int * (float * float * float) array) array;
      shard : int option;
    }
  | Shed of { time : float; side : side; port : int; excess : float; victims : int }
  | Capacity of { time : float; side : side; port : int; capacity : float }
  | Dispatch of { time : float; pending : int }

let time = function
  | Arrival { time; _ }
  | Accept { time; _ }
  | Reject { time; _ }
  | Preempt { time; _ }
  | Reshape { time; _ }
  | Shed { time; _ }
  | Capacity { time; _ }
  | Dispatch { time; _ } -> time

let kind = function
  | Arrival _ -> "arrival"
  | Accept _ -> "accept"
  | Reject _ -> "reject"
  | Preempt _ -> "preempt"
  | Reshape _ -> "reshape"
  | Shed _ -> "shed"
  | Capacity _ -> "capacity"
  | Dispatch _ -> "dispatch"

let side_name = function Ingress -> "ingress" | Egress -> "egress"

let pp ppf ev =
  match ev with
  | Arrival { time; id; ingress; egress; volume; ts; tf; max_rate; _ } ->
      Format.fprintf ppf "%12.3f arrival  r%d %d->%d vol=%.1fMB win=[%.2f,%.2f] max=%.1f" time id
        ingress egress volume ts tf max_rate
  | Accept { time; id; bw; sigma; _ } ->
      Format.fprintf ppf "%12.3f accept   r%d @ %.2fMB/s from %.3f" time id bw sigma
  | Reject { time; id; reason; port; headroom; _ } ->
      Format.fprintf ppf "%12.3f reject   r%d (%s)%a" time id reason
        (fun ppf -> function
          | Some (side, p), Some h ->
              Format.fprintf ppf " at %s %d, headroom %.2fMB/s" (side_name side) p h
          | Some (side, p), None -> Format.fprintf ppf " at %s %d" (side_name side) p
          | _ -> ())
        (port, headroom)
  | Preempt { time; id; bw; _ } ->
      Format.fprintf ppf "%12.3f preempt  r%d (held %.2fMB/s)" time id bw
  | Reshape { time; id; profile; revised; _ } ->
      Format.fprintf ppf "%12.3f reshape  r%d accepted (%d steps, %d pending revised)" time id
        (Array.length profile) (Array.length revised)
  | Shed { time; side; port; excess; victims } ->
      Format.fprintf ppf "%12.3f shed     %s %d excess=%.2fMB/s victims=%d" time (side_name side)
        port excess victims
  | Capacity { time; side; port; capacity } ->
      Format.fprintf ppf "%12.3f capacity %s %d -> %.2fMB/s" time (side_name side) port capacity
  | Dispatch { time; pending } ->
      Format.fprintf ppf "%12.3f dispatch (%d pending)" time pending
