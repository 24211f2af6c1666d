(* Adjacency as arrays-of-growable-int-vectors; each edge stores its
   remaining capacity, the residual twin being the edge with id lxor 1. *)

type t = {
  vertices : int;
  mutable cap : int array;  (* remaining capacity per half-edge *)
  mutable dst : int array;  (* head per half-edge *)
  mutable edges : int;  (* half-edges stored *)
  adj : int list array;  (* outgoing half-edge ids per vertex, reversed *)
  mutable adj_frozen : int array array option;
  mutable original_cap : int array;
}

let create ~vertices =
  if vertices <= 0 then invalid_arg "Dinic.create: need at least one vertex";
  {
    vertices;
    cap = Array.make 16 0;
    dst = Array.make 16 0;
    edges = 0;
    adj = Array.make vertices [];
    adj_frozen = None;
    original_cap = [||];
  }

let ensure_room t =
  if t.edges + 2 > Array.length t.cap then begin
    let n = 2 * Array.length t.cap in
    let cap = Array.make n 0 and dst = Array.make n 0 in
    Array.blit t.cap 0 cap 0 t.edges;
    Array.blit t.dst 0 dst 0 t.edges;
    t.cap <- cap;
    t.dst <- dst
  end

let add_edge t ~src ~dst ~capacity =
  if t.adj_frozen <> None then invalid_arg "Dinic.add_edge: graph already solved";
  if capacity < 0 then invalid_arg "Dinic.add_edge: negative capacity";
  if src < 0 || src >= t.vertices || dst < 0 || dst >= t.vertices then
    invalid_arg "Dinic.add_edge: vertex out of range";
  ensure_room t;
  let id = t.edges in
  t.cap.(id) <- capacity;
  t.dst.(id) <- dst;
  t.cap.(id + 1) <- 0;
  t.dst.(id + 1) <- src;
  t.edges <- t.edges + 2;
  t.adj.(src) <- id :: t.adj.(src);
  t.adj.(dst) <- (id + 1) :: t.adj.(dst);
  id

let freeze t =
  match t.adj_frozen with
  | Some a -> a
  | None ->
      let a = Array.map (fun l -> Array.of_list (List.rev l)) t.adj in
      t.adj_frozen <- Some a;
      t.original_cap <- Array.sub t.cap 0 t.edges;
      a

let max_flow t ~source ~sink =
  if source < 0 || source >= t.vertices || sink < 0 || sink >= t.vertices || source = sink then
    invalid_arg "Dinic.max_flow: bad source/sink";
  let adj = freeze t in
  let level = Array.make t.vertices (-1) in
  let iter = Array.make t.vertices 0 in
  let queue = Queue.create () in
  let bfs () =
    Array.fill level 0 t.vertices (-1);
    Queue.clear queue;
    level.(source) <- 0;
    Queue.push source queue;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Array.iter
        (fun e ->
          let w = t.dst.(e) in
          if t.cap.(e) > 0 && level.(w) < 0 then begin
            level.(w) <- level.(v) + 1;
            Queue.push w queue
          end)
        adj.(v)
    done;
    level.(sink) >= 0
  in
  (* Blocking-flow DFS with per-vertex edge iterators. *)
  let rec dfs v pushed =
    if v = sink then pushed
    else begin
      let result = ref 0 in
      while !result = 0 && iter.(v) < Array.length adj.(v) do
        let e = adj.(v).(iter.(v)) in
        let w = t.dst.(e) in
        if t.cap.(e) > 0 && level.(w) = level.(v) + 1 then begin
          let got = dfs w (min pushed t.cap.(e)) in
          if got > 0 then begin
            t.cap.(e) <- t.cap.(e) - got;
            t.cap.(e lxor 1) <- t.cap.(e lxor 1) + got;
            result := got
          end
          else iter.(v) <- iter.(v) + 1
        end
        else iter.(v) <- iter.(v) + 1
      done;
      !result
    end
  in
  let flow = ref 0 in
  while bfs () do
    Array.fill iter 0 t.vertices 0;
    let rec push () =
      let got = dfs source max_int in
      if got > 0 then begin
        flow := !flow + got;
        push ()
      end
    in
    push ()
  done;
  !flow

let flow_on t id =
  if id < 0 || id >= t.edges || id land 1 = 1 then invalid_arg "Dinic.flow_on: bad edge id";
  if t.adj_frozen = None then 0 else t.original_cap.(id) - t.cap.(id)

