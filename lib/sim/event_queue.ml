type 'a entry = { time : float; seq : int; payload : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable next_seq : int;
  initial_capacity : int;
}

let create ?(initial_capacity = 64) () =
  { heap = [||]; size = 0; next_seq = 0; initial_capacity = max 1 initial_capacity }

(* [a] precedes [b] in the heap order. *)
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let swap t i j =
  let tmp = t.heap.(i) in
  t.heap.(i) <- t.heap.(j);
  t.heap.(j) <- tmp

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(parent) then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!smallest) then smallest := l;
  if r < t.size && before t.heap.(r) t.heap.(!smallest) then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let ensure_capacity t entry =
  if Array.length t.heap = 0 then t.heap <- Array.make t.initial_capacity entry
  else if t.size >= Array.length t.heap then begin
    let fresh = Array.make (2 * Array.length t.heap) entry in
    Array.blit t.heap 0 fresh 0 t.size;
    t.heap <- fresh
  end

let push t ~time payload =
  if not (Float.is_finite time) then invalid_arg "Event_queue.push: non-finite time";
  let entry = { time; seq = t.next_seq; payload } in
  t.next_seq <- t.next_seq + 1;
  ensure_capacity t entry;
  t.heap.(t.size) <- entry;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let peek t = if t.size = 0 then None else Some (t.heap.(0).time, t.heap.(0).payload)

let next_time t = if t.size = 0 then infinity else t.heap.(0).time

let take t =
  if t.size = 0 then invalid_arg "Event_queue.take: empty queue";
  let top = t.heap.(0) in
  t.size <- t.size - 1;
  if t.size > 0 then begin
    t.heap.(0) <- t.heap.(t.size);
    sift_down t 0
  end;
  top.payload

let pop t =
  if t.size = 0 then None
  else
    let time = t.heap.(0).time in
    Some (time, take t)

let fold f init t =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc t.heap.(i).payload
  done;
  !acc

let is_empty t = t.size = 0
let length t = t.size
