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

   The tree is an AVL rebalanced in place on the insertion/deletion path,
   and its nodes live in one pool per timeline: node [i]'s five floats
   ([key], [delta], [sum], [best], [best_at]) are [fl.(5i)] to
   [fl.(5i+4)], its links and height ([l], [r], [h]) are [ix.(3i)] to
   [ix.(3i+2)].  Index 0 is the leaf, with sum 0 and height 0, so a
   child read needs no case on leaf or node.  A node dropped by an exact
   cancel or by [retire_before] goes on a free list chained through its
   [l] slot, and the next insertion takes it back; the pool only grows,
   by doubling, when the free list is empty.  Floats stay unboxed in the
   pool, links are immediates, so a steady-state add or remove allocates
   nothing and rewriting a link pays no write barrier.  [copy] copies the
   two arrays' used prefix: O(n) and bit for bit.  Range maxima accumulate into a
   probe cursor owned by the timeline ([probe], an all-float record),
   reused across queries, rather than building a (value, witness) tuple
   at every level of the descent.

   Float discipline matches [Profile_ref] exactly: keys are ordered as
   [Map.Make (Float)] orders them, deltas cancel on [= 0.], and aggregate
   sums are accumulated left-to-right in key order so every level equals
   the same rounding-order prefix sum the reference computes.  In-place
   rebalancing performs the same rotations on the same shapes as the
   earlier persistent version, so cached aggregates associate identically
   and decision streams are bit-identical.  The differential qcheck suite
   in test/test_timeline.ml pins this equivalence down, and the kernel pins
   in test/test_kernels.ml pin every answer's bits.

   The hot paths stay free of hidden calls and allocation: keys and bounds
   are compared with the float operators, not [Float.compare] — the two
   orders agree on every finite key and on every bound the queries accept
   (NaN bounds are refused), and [-0.] and [0.] are one key under both;
   heights take an int maximum, not the polymorphic [max]; a release
   passes its rate with a sign flag rather than a negated (boxed) float;
   and the point query keeps the terms of its prefix sum in a float stack
   owned by the timeline and adds them innermost first, the order the
   recursive form returned them in, instead of boxing a float at every
   level.

   A horizon bounds the history the tree keeps: [retire_before] detaches
   every breakpoint keyed below it, in key order, and adds its delta into
   a [base] level.  Point queries and range descents start their
   accumulator at [base] where the whole-history tree starts at [0.], so
   a timeline that is never retired answers with the same bits as
   before.  A retired tree holds fewer nodes, so its sums associate
   differently and its levels may differ from the whole-history tree's
   in the last ulps. *)

(* Reusable probe cursor for range-max descents; [pacc] carries the
   descent's running offset so no float is passed (boxed) per level. *)
type probe = { mutable pbest : float; mutable pbest_at : float; mutable pacc : float }

(* [fl] and [ix] are the node pool (five floats and three ints per node,
   index 0 the leaf); [free] heads the free list (0 when empty) and
   [next] is the first slot never used.  [stack] holds a point query's
   prefix-sum terms, one per right turn; it is kept at least as long as
   the tree is high.  [base] is the sum, in key order, of the deltas
   retired from keys below [horizon] ([neg_infinity] until the first
   {!retire_before}). *)
type t = {
  mutable fl : float array;
  mutable ix : int array;
  mutable root : int;
  mutable free : int;
  mutable next : int;
  probe : probe;
  mutable stack : float array;
  mutable base : float;
  mutable horizon : float;
}

let[@inline] key t i = Array.unsafe_get t.fl (5 * i)
let[@inline] delta t i = Array.unsafe_get t.fl ((5 * i) + 1)
let[@inline] sum t i = Array.unsafe_get t.fl ((5 * i) + 2)
let[@inline] best t i = Array.unsafe_get t.fl ((5 * i) + 3)
let[@inline] best_at t i = Array.unsafe_get t.fl ((5 * i) + 4)
let[@inline] left t i = Array.unsafe_get t.ix (3 * i)
let[@inline] right t i = Array.unsafe_get t.ix ((3 * i) + 1)
let[@inline] height t i = Array.unsafe_get t.ix ((3 * i) + 2)
let[@inline] set_delta t i x = Array.unsafe_set t.fl ((5 * i) + 1) x
let[@inline] set_sum t i x = Array.unsafe_set t.fl ((5 * i) + 2) x
let[@inline] set_left t i c = Array.unsafe_set t.ix (3 * i) c
let[@inline] set_right t i c = Array.unsafe_set t.ix ((3 * i) + 1) c

let[@inline] set_best t i x at =
  Array.unsafe_set t.fl ((5 * i) + 3) x;
  Array.unsafe_set t.fl ((5 * i) + 4) at

(* Recompute height and aggregates of node [n] from its children (which
   must already be up to date).  The in-order candidates for [best] are
   the left subtree's best, the level after this node, and the right
   subtree's best offset by everything to its left; strict [>] keeps the
   leftmost witness on ties. *)
let update t n =
  let l = left t n and r = right t n in
  let here = sum t l +. delta t n in
  let hl = height t l and hr = height t r in
  Array.unsafe_set t.ix ((3 * n) + 2) (1 + if hl >= hr then hl else hr);
  set_sum t n (here +. sum t r);
  if l = 0 || here > best t l then set_best t n here (key t n)
  else set_best t n (best t l) (best_at t l);
  if r <> 0 then begin
    let rb = here +. best t r in
    if rb > best t n then set_best t n rb (best_at t r)
  end

(* AVL rebalance for a node whose children differ in height by at most 2
   (the invariant after one insertion or deletion below).  Rotations
   relink the existing nodes — same shapes as the persistent version,
   children updated before their new parent.  Returns the subtree's
   root. *)
let balance t n =
  let l = left t n and r = right t n in
  let hl = height t l and hr = height t r in
  if hl > hr + 1 then begin
    if height t (left t l) >= height t (right t l) then begin
      (* single right rotation *)
      set_left t n (right t l);
      update t n;
      set_right t l n;
      update t l;
      l
    end
    else begin
      (* left-right double rotation *)
      let lr = right t l in
      set_right t l (left t lr);
      update t l;
      set_left t n (right t lr);
      update t n;
      set_left t lr l;
      set_right t lr n;
      update t lr;
      lr
    end
  end
  else if hr > hl + 1 then begin
    if height t (right t r) >= height t (left t r) then begin
      (* single left rotation *)
      set_right t n (left t r);
      update t n;
      set_left t r n;
      update t r;
      r
    end
    else begin
      (* right-left double rotation *)
      let rl = left t r in
      set_left t r (right t rl);
      update t r;
      set_right t n (left t rl);
      update t n;
      set_left t rl n;
      set_right t rl r;
      update t rl;
      rl
    end
  end
  else begin
    update t n;
    n
  end

let rec min_node t n = if left t n = 0 then n else min_node t (left t n)

let rec remove_min t n =
  if left t n = 0 then right t n
  else begin
    set_left t n (remove_min t (left t n));
    balance t n
  end

(* Join two subtrees whose keys are already ordered (all of [l] < all of
   [r]): the minimum node of [r] is detached and reused as the new root —
   the same shape the persistent version built from the min binding. *)
let merge t l r =
  if l = 0 then r
  else if r = 0 then l
  else begin
    let m = min_node t r in
    let r' = remove_min t r in
    set_left t m l;
    set_right t m r';
    balance t m
  end

let release_node t i =
  set_left t i t.free;
  t.free <- i

(* Double the pool, keeping every node where it is. *)
let grow t =
  let nodes = 2 * (Array.length t.ix / 3) in
  let fl = Array.make (5 * nodes) 0. and ix = Array.make (3 * nodes) 0 in
  Array.blit t.fl 0 fl 0 (Array.length t.fl);
  Array.blit t.ix 0 ix 0 (Array.length t.ix);
  t.fl <- fl;
  t.ix <- ix

(* A fresh leaf-childed node at [k] with delta [bw] ([-.bw] when [neg]),
   from the free list first. *)
let new_node t k bw neg =
  let i =
    if t.free <> 0 then begin
      let i = t.free in
      t.free <- left t i;
      i
    end
    else begin
      if 3 * (t.next + 1) > Array.length t.ix then grow t;
      let i = t.next in
      t.next <- i + 1;
      i
    end
  in
  let d = if neg then -.bw else bw in
  let o = 5 * i in
  Array.unsafe_set t.fl o k;
  Array.unsafe_set t.fl (o + 1) d;
  Array.unsafe_set t.fl (o + 2) d;
  Array.unsafe_set t.fl (o + 3) d;
  Array.unsafe_set t.fl (o + 4) k;
  set_left t i 0;
  set_right t i 0;
  Array.unsafe_set t.ix ((3 * i) + 2) 1;
  i

(* Add [bw] ([-.bw] when [neg]) to the entry at [k], dropping the node
   when the deltas cancel exactly — the same invariant as the reference
   map, so [breakpoints_over] never reports a time where the level does
   not change.  Returns the subtree's root. *)
let rec add_delta t n k bw neg =
  if n = 0 then if bw = 0. then 0 else new_node t k bw neg
  else
    let nk = key t n in
    if k = nk then begin
      let d = delta t n +. if neg then -.bw else bw in
      if d = 0. then begin
        let m = merge t (left t n) (right t n) in
        release_node t n;
        m
      end
      else begin
        set_delta t n d;
        update t n;
        n
      end
    end
    else if k < nk then begin
      set_left t n (add_delta t (left t n) k bw neg);
      balance t n
    end
    else begin
      set_right t n (add_delta t (right t n) k bw neg);
      balance t n
    end

(* The terms of the sum of deltas with key <= time, one per node where
   the descent turns right ([sum l +. delta] there), stored from the root
   down; returns how many. *)
let rec prefix_terms t n time stack k =
  if n = 0 then k
  else if key t n <= time then begin
    Array.unsafe_set stack k (sum t (left t n) +. delta t n);
    prefix_terms t (right t n) time stack (k + 1)
  end
  else prefix_terms t (left t n) time stack k

(* Sum of deltas with key <= time: each right turn's term plus everything
   below it, [base] at the leaf — the right-nested order of the recursive
   [sum l +. delta +. prefix_sum r]. *)
let prefix_sum t time =
  let h = height t t.root in
  if Array.length t.stack < h then t.stack <- Array.make (2 * h) 0.;
  let stack = t.stack in
  let acc = ref t.base in
  for i = prefix_terms t t.root time stack 0 - 1 downto 0 do
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
let rec best_above t n lo p =
  if n <> 0 then begin
    let here = p.pacc +. sum t (left t n) +. delta t n in
    if key t n <= lo then begin
      p.pacc <- here;
      best_above t (right t n) lo p
    end
    else begin
      best_above t (left t n) lo p;
      if here > p.pbest then begin
        p.pbest <- here;
        p.pbest_at <- key t n
      end;
      let r = right t n in
      if r <> 0 then begin
        let rb = here +. best t r in
        if rb > p.pbest then begin
          p.pbest <- rb;
          p.pbest_at <- best_at t r
        end
      end
    end
  end

(* Symmetric: keys < hi. *)
let rec best_below t n hi p =
  if n <> 0 then
    if key t n >= hi then best_below t (left t n) hi p
    else begin
      let acc = p.pacc in
      let l = left t n in
      let here = acc +. sum t l +. delta t n in
      if l <> 0 then begin
        let lb = acc +. best t l in
        if lb > p.pbest then begin
          p.pbest <- lb;
          p.pbest_at <- best_at t l
        end
      end;
      if here > p.pbest then begin
        p.pbest <- here;
        p.pbest_at <- key t n
      end;
      p.pacc <- here;
      best_below t (right t n) hi p
    end

(* Keys strictly inside (lo, hi): descend to the split node, then the two
   one-sided searches above. *)
let rec best_between t n ~lo ~hi p =
  if n <> 0 then
    if key t n <= lo then begin
      p.pacc <- p.pacc +. sum t (left t n) +. delta t n;
      best_between t (right t n) ~lo ~hi p
    end
    else if key t n >= hi then best_between t (left t n) ~lo ~hi p
    else begin
      let here = p.pacc +. sum t (left t n) +. delta t n in
      best_above t (left t n) lo p;
      if here > p.pbest then begin
        p.pbest <- here;
        p.pbest_at <- key t n
      end;
      p.pacc <- here;
      best_below t (right t n) hi p
    end

(* --- public interface --- *)

let fresh_probe () = { pbest = neg_infinity; pbest_at = Float.nan; pacc = 0. }

(* Room for the leaf and seven nodes before the first doubling. *)
let create () =
  {
    fl = Array.make 40 0.;
    ix = Array.make 24 0;
    root = 0;
    free = 0;
    next = 1;
    probe = fresh_probe ();
    stack = [||];
    base = 0.;
    horizon = neg_infinity;
  }

(* The pool's used prefix, free slots included: the copy's node indices
   are the original's. *)
let copy t =
  {
    t with
    fl = Array.sub t.fl 0 (5 * t.next);
    ix = Array.sub t.ix 0 (3 * t.next);
    probe = fresh_probe ();
    stack = [||];
  }

let is_empty t = t.root = 0 && t.base = 0.

(* [add] with the rate's sign as a flag.  A delta keyed behind the
   horizon counts from the horizon on, so it goes into [base]; an
   interval wholly behind it changes no level the timeline still answers
   for.  Before the first retirement both tests are false for every
   finite bound, and the tree sees the same two insertions as ever. *)
let change t ~from_ ~until bw neg =
  if not (Float.is_finite from_ && Float.is_finite until) then
    invalid_arg "Timeline.add: non-finite interval";
  if from_ >= until then invalid_arg "Timeline.add: empty interval";
  if until >= t.horizon then begin
    if from_ < t.horizon then t.base <- (t.base +. if neg then -.bw else bw)
    else t.root <- add_delta t t.root from_ bw neg;
    t.root <- add_delta t t.root until bw (not neg)
  end

let add t ~from_ ~until bw = change t ~from_ ~until bw false
let remove t ~from_ ~until bw = change t ~from_ ~until bw true

(* Detach the minimum breakpoint while it lies below [h], folding each
   delta into [base] in key order. *)
let retire_before t h =
  if not (Float.is_finite h) then invalid_arg "Timeline.retire_before: non-finite horizon";
  if h > t.horizon then begin
    t.horizon <- h;
    let base = ref t.base in
    let m = ref (if t.root = 0 then 0 else min_node t t.root) in
    while !m <> 0 && key t !m < h do
      base := !base +. delta t !m;
      t.root <- remove_min t t.root;
      release_node t !m;
      m := if t.root = 0 then 0 else min_node t t.root
    done;
    t.base <- !base
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
  best_between t t.root ~lo:from_ ~hi:until p

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
  let rec walk n acc =
    if n = 0 then acc
    else
      let k = key t n in
      let acc = if k < until then walk (right t n) acc else acc in
      if from_ < k then walk (left t n) (if k < until then k :: acc else acc) else acc
  in
  walk t.root []
