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
    }
  | Reject of {
      time : float;
      id : int;
      reason : string;
      port : (side * int) option;
      headroom : float option;
    }
  | Preempt of { time : float; id : int; bw : float }
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
    }
  | Shed of { time : float; side : side; port : int; excess : float; victims : int }
  | Capacity of { time : float; side : side; port : int; capacity : float }

let time = function
  | Arrival { time; _ }
  | Accept { time; _ }
  | Reject { time; _ }
  | Preempt { time; _ }
  | Reshape { time; _ }
  | Shed { time; _ }
  | Capacity { time; _ } -> time

let side_name = function Ingress -> "ingress" | Egress -> "egress"
