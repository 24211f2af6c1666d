(* Balanced breakpoint tree for a single port's piecewise-constant usage.

   Each node holds one breakpoint time and the delta of allocated bandwidth
   there (exactly the entries of the reference [Profile_ref] map), and
   caches for its subtree
     - [sum]: the total of the deltas, and
     - [best]/[best_at]: the maximum over the subtree's breakpoints of the
       running in-order delta sum (i.e. the usage level just after each
       breakpoint), with the leftmost breakpoint achieving it.
   Prefix sums ([usage_at]) and range maxima ([max_over], [argmax_over])
   then resolve along a single root-to-leaf descent: O(log n) against the
   reference's O(n) full-map walk.

   The tree is an AVL rebalanced in place on the insertion/deletion path.
   Nodes are mutable and allocated once per breakpoint: an update rewrites
   the h/sum/best caches along the path instead of copying it, and the
   float payload of every node lives in an all-float record ([fl]) so the
   aggregates stay unboxed — the admission inner loop runs without per-probe
   allocation.  Range maxima accumulate into a probe cursor owned by the
   timeline ([probe]), reused across queries, rather than building a
   (value, witness) tuple at every level of the descent.

   Float discipline matches [Profile_ref] exactly: keys are ordered as
   [Map.Make (Float)] orders them, deltas cancel on [= 0.], and aggregate
   sums are accumulated left-to-right in key order so every level equals
   the same rounding-order prefix sum the reference computes.  In-place
   rebalancing performs the same rotations on the same shapes as the
   previous persistent version, so cached aggregates associate identically
   and decision streams are bit-identical.  The differential qcheck suite
   in test/test_timeline.ml pins this equivalence down, and the kernel pins
   in test/test_kernels.ml pin every answer's bits.

   The hot paths stay free of hidden calls and allocation: keys and bounds
   are compared with the float operators, not [Float.compare] — the two
   orders agree on every finite key and on every bound the queries accept
   (NaN bounds are refused), and [-0.] and [0.] are one key under both;
   heights take an int maximum, not the polymorphic [max]; a descent
   rewrites a child pointer only when the subtree's root changed, so an
   unchanged path pays no write barrier; and the point query keeps the
   terms of its prefix sum in a float stack owned by the timeline and adds
   them innermost first, the order the recursive form returned them in,
   instead of boxing a float at every level.

   A horizon bounds the history the tree keeps: [retire_before] detaches
   every breakpoint keyed below it, in key order, and adds its delta into
   a [base] level.  Point queries and range descents start their
   accumulator at [base] where the whole-history tree starts at [0.], so
   a timeline that is never retired answers with the same bits as
   before.  A retired tree holds fewer nodes, so its sums associate
   differently and its levels may differ from the whole-history tree's
   in the last ulps. *)

(* All-float payload: flat unboxed float block, mutated in place. *)
type fl = {
  mutable key : float;
  mutable delta : float;
  mutable sum : float;
  mutable best : float;
  mutable best_at : float;
}

type tree = Leaf | Node of { mutable l : tree; mutable r : tree; mutable h : int; f : fl }

(* Reusable probe cursor for range-max descents; [pacc] carries the
   descent's running offset so no float is passed (boxed) per level. *)
type probe = { mutable pbest : float; mutable pbest_at : float; mutable pacc : float }

(* [stack] holds a point query's prefix-sum terms, one per right turn;
   it is kept at least as long as the tree is high.  [base] is the sum,
   in key order, of the deltas retired from keys below [horizon]
   ([neg_infinity] until the first {!retire_before}). *)
type t = {
  mutable root : tree;
  probe : probe;
  mutable stack : float array;
  mutable base : float;
  mutable horizon : float;
}

let height = function Leaf -> 0 | Node n -> n.h
let sum = function Leaf -> 0. | Node n -> n.f.sum

(* Recompute height and aggregates of a node from its children (which must
   already be up to date).  The in-order candidates for [best] are the left
   subtree's best, the level after this node, and the right subtree's best
   offset by everything to its left; strict [>] keeps the leftmost witness
   on ties. *)
let update t =
  match t with
  | Leaf -> ()
  | Node n ->
      let f = n.f in
      let here = sum n.l +. f.delta in
      let hl = height n.l and hr = height n.r in
      n.h <- 1 + if hl >= hr then hl else hr;
      f.sum <- here +. sum n.r;
      (match n.l with
      | Leaf ->
          f.best <- here;
          f.best_at <- f.key
      | Node ln ->
          if here > ln.f.best then begin
            f.best <- here;
            f.best_at <- f.key
          end
          else begin
            f.best <- ln.f.best;
            f.best_at <- ln.f.best_at
          end);
      (match n.r with
      | Leaf -> ()
      | Node rn ->
          let rb = here +. rn.f.best in
          if rb > f.best then begin
            f.best <- rb;
            f.best_at <- rn.f.best_at
          end)

(* AVL rebalance for a node whose children differ in height by at most 2
   (the invariant after one insertion or deletion below).  Rotations
   reattach the existing nodes — same shapes as the persistent version,
   children updated before their new parent. *)
let balance t =
  match t with
  | Leaf -> t
  | Node n ->
      let hl = height n.l and hr = height n.r in
      if hl > hr + 1 then begin
        let l = n.l in
        match l with
        | Node ln when height ln.l >= height ln.r ->
            (* single right rotation *)
            n.l <- ln.r;
            update t;
            ln.r <- t;
            update l;
            l
        | Node ln -> (
            match ln.r with
            | Node lrn ->
                (* left-right double rotation *)
                let lr = ln.r in
                ln.r <- lrn.l;
                update l;
                n.l <- lrn.r;
                update t;
                lrn.l <- l;
                lrn.r <- t;
                update lr;
                lr
            | Leaf -> assert false)
        | Leaf -> assert false
      end
      else if hr > hl + 1 then begin
        let r = n.r in
        match r with
        | Node rn when height rn.r >= height rn.l ->
            (* single left rotation *)
            n.r <- rn.l;
            update t;
            rn.l <- t;
            update r;
            r
        | Node rn -> (
            match rn.l with
            | Node rln ->
                (* right-left double rotation *)
                let rl = rn.l in
                rn.l <- rln.r;
                update r;
                n.r <- rln.l;
                update t;
                rln.l <- t;
                rln.r <- r;
                update rl;
                rl
            | Leaf -> assert false)
        | Leaf -> assert false
      end
      else begin
        update t;
        t
      end

let rec min_node t =
  match t with
  | Leaf -> assert false
  | Node { l = Leaf; _ } -> t
  | Node n -> min_node n.l

let rec remove_min t =
  match t with
  | Leaf -> assert false
  | Node { l = Leaf; r; _ } -> r
  | Node n ->
      n.l <- remove_min n.l;
      balance t

(* Join two subtrees whose keys are already ordered (all of [l] < all of
   [r]): the minimum node of [r] is detached and reused as the new root —
   the same shape the persistent version built from the min binding. *)
let merge l r =
  match (l, r) with
  | Leaf, t | t, Leaf -> t
  | _ -> (
      let mt = min_node r in
      match mt with
      | Node m ->
          let r' = remove_min r in
          m.l <- l;
          m.r <- r';
          balance mt
      | Leaf -> assert false)

(* Add [delta] to the entry at [key], dropping the node when the deltas
   cancel exactly — the same invariant as the reference map, so
   [breakpoints_over] never reports a time where the level does not
   change. *)
let rec add_delta t key delta =
  match t with
  | Leaf ->
      if delta = 0. then Leaf
      else Node { l = Leaf; r = Leaf; h = 1; f = { key; delta; sum = delta; best = delta; best_at = key } }
  | Node n ->
      if key = n.f.key then begin
        let d = n.f.delta +. delta in
        if d = 0. then merge n.l n.r
        else begin
          n.f.delta <- d;
          update t;
          t
        end
      end
      else if key < n.f.key then begin
        let l = add_delta n.l key delta in
        if l != n.l then n.l <- l;
        balance t
      end
      else begin
        let r = add_delta n.r key delta in
        if r != n.r then n.r <- r;
        balance t
      end

(* The terms of the sum of deltas with key <= time, one per node where
   the descent turns right ([sum l +. delta] there), stored from the root
   down; returns how many. *)
let rec prefix_terms tree time stack k =
  match tree with
  | Leaf -> k
  | Node n ->
      if n.f.key <= time then begin
        stack.(k) <- sum n.l +. n.f.delta;
        prefix_terms n.r time stack (k + 1)
      end
      else prefix_terms n.l time stack k

(* Sum of deltas with key <= time: each right turn's term plus everything
   below it, [base] at the leaf — the right-nested order of the recursive
   [sum l +. delta +. prefix_sum r]. *)
let prefix_sum t time =
  let h = height t.root in
  if Array.length t.stack < h then t.stack <- Array.make (2 * h) 0.;
  let stack = t.stack in
  let acc = ref t.base in
  for i = prefix_terms t.root time stack 0 - 1 downto 0 do
    acc := stack.(i) +. !acc
  done;
  !acc

(* Max (and leftmost witness) of the level after each breakpoint with
   key > lo, offset by [p.pacc], the sum of all deltas left of this
   subtree (the descent may overwrite it).  Subtrees entirely above the
   bound are answered from their cached aggregates, so the descent visits
   O(log n) nodes.  Candidates are folded into the probe cursor strictly
   in key order with strictly-greater replacement — the same (value,
   leftmost witness) the persistent tuple-returning version computed,
   without the per-level allocation. *)
let rec best_above tree lo p =
  match tree with
  | Leaf -> ()
  | Node n ->
      let here = p.pacc +. sum n.l +. n.f.delta in
      if n.f.key <= lo then begin
        p.pacc <- here;
        best_above n.r lo p
      end
      else begin
        best_above n.l lo p;
        if here > p.pbest then begin
          p.pbest <- here;
          p.pbest_at <- n.f.key
        end;
        match n.r with
        | Leaf -> ()
        | Node rn ->
            let rb = here +. rn.f.best in
            if rb > p.pbest then begin
              p.pbest <- rb;
              p.pbest_at <- rn.f.best_at
            end
      end

(* Symmetric: keys < hi. *)
let rec best_below tree hi p =
  match tree with
  | Leaf -> ()
  | Node n ->
      if n.f.key >= hi then best_below n.l hi p
      else begin
        let acc = p.pacc in
        let here = acc +. sum n.l +. n.f.delta in
        (match n.l with
        | Leaf -> ()
        | Node ln ->
            let lb = acc +. ln.f.best in
            if lb > p.pbest then begin
              p.pbest <- lb;
              p.pbest_at <- ln.f.best_at
            end);
        if here > p.pbest then begin
          p.pbest <- here;
          p.pbest_at <- n.f.key
        end;
        p.pacc <- here;
        best_below n.r hi p
      end

(* Keys strictly inside (lo, hi): descend to the split node, then the two
   one-sided searches above. *)
let rec best_between tree ~lo ~hi p =
  match tree with
  | Leaf -> ()
  | Node n ->
      if n.f.key <= lo then begin
        p.pacc <- p.pacc +. sum n.l +. n.f.delta;
        best_between n.r ~lo ~hi p
      end
      else if n.f.key >= hi then best_between n.l ~lo ~hi p
      else begin
        let here = p.pacc +. sum n.l +. n.f.delta in
        best_above n.l lo p;
        if here > p.pbest then begin
          p.pbest <- here;
          p.pbest_at <- n.f.key
        end;
        p.pacc <- here;
        best_below n.r hi p
      end

(* --- public interface --- *)

let fresh_probe () = { pbest = neg_infinity; pbest_at = Float.nan; pacc = 0. }

let create () =
  { root = Leaf; probe = fresh_probe (); stack = [||]; base = 0.; horizon = neg_infinity }

let rec copy_tree = function
  | Leaf -> Leaf
  | Node n ->
      Node
        {
          l = copy_tree n.l;
          r = copy_tree n.r;
          h = n.h;
          f =
            {
              key = n.f.key;
              delta = n.f.delta;
              sum = n.f.sum;
              best = n.f.best;
              best_at = n.f.best_at;
            };
        }

let copy t =
  { root = copy_tree t.root; probe = fresh_probe (); stack = [||]; base = t.base; horizon = t.horizon }

let is_empty t = t.root = Leaf && t.base = 0.

(* A delta keyed behind the horizon counts from the horizon on, so it
   goes into [base]; an interval wholly behind it changes no level the
   timeline still answers for.  Before the first retirement both tests
   are false for every finite bound, and the tree sees the same two
   insertions as ever. *)
let add t ~from_ ~until bw =
  if not (Float.is_finite from_ && Float.is_finite until) then
    invalid_arg "Timeline.add: non-finite interval";
  if from_ >= until then invalid_arg "Timeline.add: empty interval";
  if until >= t.horizon then begin
    if from_ < t.horizon then t.base <- t.base +. bw else t.root <- add_delta t.root from_ bw;
    t.root <- add_delta t.root until (-.bw)
  end

let remove t ~from_ ~until bw = add t ~from_ ~until (-.bw)

(* Detach the minimum breakpoint while it lies below [h], folding each
   delta into [base] in key order. *)
let retire_before t h =
  if not (Float.is_finite h) then invalid_arg "Timeline.retire_before: non-finite horizon";
  if h > t.horizon then begin
    t.horizon <- h;
    let rec retire () =
      match t.root with
      | Leaf -> ()
      | root -> (
          match min_node root with
          | Node m when m.f.key < h ->
              t.base <- t.base +. m.f.delta;
              t.root <- remove_min root;
              retire ()
          | _ -> ())
    in
    retire ()
  end

let usage_at t time =
  if time < t.horizon then invalid_arg "Timeline.usage_at: time before the horizon";
  prefix_sum t time

(* The best level over the breakpoints inside (from_, until), into the
   probe.  [not (from_ < until)] also refuses a NaN bound, which the float
   operators and [Float.compare] would order differently. *)
let probe_range t what ~from_ ~until =
  if not (from_ < until) then invalid_arg ("Timeline." ^ what ^ ": empty or NaN interval");
  if from_ < t.horizon then invalid_arg ("Timeline." ^ what ^ ": interval starts before the horizon");
  let p = t.probe in
  p.pbest <- neg_infinity;
  p.pbest_at <- Float.nan;
  p.pacc <- t.base;
  best_between t.root ~lo:from_ ~hi:until p

(* The level {!argmax_over} reports. *)
let max_over t ~from_ ~until =
  probe_range t "max_over" ~from_ ~until;
  let start_level = prefix_sum t from_ in
  let best = t.probe.pbest in
  if best > start_level then best else start_level

let argmax_over t ~from_ ~until =
  probe_range t "argmax_over" ~from_ ~until;
  let start_level = prefix_sum t from_ in
  let p = t.probe in
  if p.pbest > start_level then (p.pbest_at, p.pbest) else (from_, start_level)

let peak t = Float.max 0.0 (max_over t ~from_:t.horizon ~until:infinity)

(* Keys in (from_, until), ascending: the walk builds the list from the
   right and skips every subtree wholly outside the range, so it visits
   O(log n + k) nodes. *)
let breakpoints_over t ~from_ ~until =
  if Float.is_nan from_ || Float.is_nan until then
    invalid_arg "Timeline.breakpoints_over: NaN bound";
  if from_ < t.horizon then invalid_arg "Timeline.breakpoints_over: range starts before the horizon";
  let rec walk tree acc =
    match tree with
    | Leaf -> acc
    | Node n ->
        let k = n.f.key in
        let acc = if k < until then walk n.r acc else acc in
        if from_ < k then walk n.l (if k < until then k :: acc else acc) else acc
  in
  walk t.root []
