type counter = { mutable count : int }
type gauge = { mutable level : float }

(* Log2 buckets: sample v lands in the bucket of its binary exponent,
   shifted so that values <= 1.0 share bucket 0.  Upper bound of bucket i
   is 2^i.  63 exponent buckets plus a catch-all keeps the array tiny. *)
let nbuckets = 64

(* The running sum sits in an all-float record, stored flat, so adding
   a sample writes the double in place instead of boxing a new one. *)
type sum = { mutable sum : float }

type histogram = {
  buckets : int array;  (* length nbuckets *)
  mutable total : int;
  acc : sum;
}

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

(* Keys resolved in this registry, by slot: one array per instrument
   kind, a sentinel where a key has not been resolved yet. *)
type t = {
  instruments : (string, instrument) Hashtbl.t;
  mutable counters : counter array;
  mutable gauges : gauge array;
  mutable histograms : histogram array;
}

let no_counter = { count = 0 }
let no_gauge = { level = 0.0 }
let no_histogram = { buckets = [||]; total = 0; acc = { sum = 0.0 } }

let create () =
  { instruments = Hashtbl.create 32; counters = [||]; gauges = [||]; histograms = [||] }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let find_or_create t name make select =
  match Hashtbl.find_opt t.instruments name with
  | Some inst -> (
      match select inst with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S already registered as a %s" name (kind_name inst)))
  | None ->
      let inst = make () in
      Hashtbl.add t.instruments name inst;
      match select inst with Some v -> v | None -> assert false

let counter t name =
  find_or_create t name
    (fun () -> Counter { count = 0 })
    (function Counter c -> Some c | _ -> None)

let incr c = c.count <- c.count + 1
let add c n = c.count <- c.count + n
let value c = c.count

let gauge t name =
  find_or_create t name
    (fun () -> Gauge { level = 0.0 })
    (function Gauge g -> Some g | _ -> None)

let set g v = g.level <- v
let gauge_value g = g.level

let histogram t name =
  find_or_create t name
    (fun () -> Histogram { buckets = Array.make nbuckets 0; total = 0; acc = { sum = 0.0 } })
    (function Histogram h -> Some h | _ -> None)

(* --- keys --- *)

(* Slots are numbered per kind across the process: a key is declared
   once, at module level, and owns its slot in every registry. *)
type 'a key = { name : string; slot : int }

let next_counter = Atomic.make 0
let next_gauge = Atomic.make 0
let next_histogram = Atomic.make 0
let counter_key name = { name; slot = Atomic.fetch_and_add next_counter 1 }
let gauge_key name = { name; slot = Atomic.fetch_and_add next_gauge 1 }
let histogram_key name = { name; slot = Atomic.fetch_and_add next_histogram 1 }

(* [slots] with [v] in [slot], grown (filled with [none]) if too short. *)
let store_slot slots none slot v =
  let slots =
    if slot < Array.length slots then slots
    else begin
      let a = Array.make (Int.max (slot + 1) (2 * Array.length slots)) none in
      Array.blit slots 0 a 0 (Array.length slots);
      a
    end
  in
  slots.(slot) <- v;
  slots

(* The first use of a key in a registry finds or creates its instrument
   by name, as the name-based accessors do; later uses read the slot. *)
let counter_of t k =
  if k.slot < Array.length t.counters && Array.unsafe_get t.counters k.slot != no_counter then
    Array.unsafe_get t.counters k.slot
  else begin
    let c = counter t k.name in
    t.counters <- store_slot t.counters no_counter k.slot c;
    c
  end

let gauge_of t k =
  if k.slot < Array.length t.gauges && Array.unsafe_get t.gauges k.slot != no_gauge then
    Array.unsafe_get t.gauges k.slot
  else begin
    let g = gauge t k.name in
    t.gauges <- store_slot t.gauges no_gauge k.slot g;
    g
  end

let histogram_of t k =
  if k.slot < Array.length t.histograms && Array.unsafe_get t.histograms k.slot != no_histogram
  then Array.unsafe_get t.histograms k.slot
  else begin
    let h = histogram t k.name in
    t.histograms <- store_slot t.histograms no_histogram k.slot h;
    h
  end

(* For a finite v > 1, the biased exponent E of its IEEE 754 bits gives
   v = 1.m * 2^(E-1023), so 2^(e-1) <= v < 2^e with e = E - 1022 (the
   exponent [Float.frexp] returns): v belongs in the bucket with upper
   bound 2^e.  Read from the bits, it costs no tuple and no boxed
   float. *)
let bucket_of v =
  if not (Float.is_finite v) || v <= 1.0 then 0
  else
    let e =
      Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float v) 52) - 1022
    in
    if e >= nbuckets then nbuckets - 1 else e

let observe h v =
  let i = bucket_of v in
  h.buckets.(i) <- h.buckets.(i) + 1;
  h.total <- h.total + 1;
  if Float.is_finite v then h.acc.sum <- h.acc.sum +. v

let hist_count h = h.total
let hist_sum h = h.acc.sum

let bound i = Float.ldexp 1.0 i  (* 2^i *)

(* Nearest-rank percentile with linear interpolation inside the log2
   bucket holding the rank.  The k-th smallest sample (k = ceil(q*n))
   lies in the first bucket whose cumulative count reaches k; its exact
   position inside the bucket is unknown, so the estimate walks
   (k - count_below) / bucket_count of the way across the bucket's
   value range.  The error is therefore bounded by the bucket width: the
   estimate always lies in the same power-of-two bucket as the exact
   sample (the qcheck oracle in test_obs checks precisely this). *)
(* Nearest rank k = ⌈q·n⌉, computed robustly: the float product q·n can
   land an ulp above the exact integer (0.3 · 10 = 3.0000000000000004),
   and ceil would then overshoot by a whole rank, which can cross a
   bucket boundary.  Shaving a relative epsilon before the ceil keeps
   exact-integer products exact. *)
let rank_of ~total q =
  let kf = q *. float_of_int total in
  let k = int_of_float (Float.ceil (kf -. (1e-9 *. Float.max kf 1.0))) in
  Int.max 1 (Int.min total k)

let percentile h q =
  if h.total = 0 then Float.nan
  else begin
    if not (Float.is_finite q) || q < 0. || q > 1. then
      invalid_arg "Metrics.percentile: q must be in [0,1]";
    let k = rank_of ~total:h.total q in
    let i = ref 0 and below = ref 0 in
    while !below + h.buckets.(!i) < k && !i < nbuckets - 1 do
      below := !below + h.buckets.(!i);
      i := !i + 1
    done;
    let lo = if !i = 0 then 0.0 else bound (!i - 1) in
    let hi = bound !i in
    let inside = h.buckets.(!i) in
    if inside = 0 then hi
    else lo +. ((hi -. lo) *. (float_of_int (k - !below) /. float_of_int inside))
  end

let hist_buckets h =
  let acc = ref [] in
  for i = nbuckets - 1 downto 0 do
    if h.buckets.(i) > 0 then acc := (bound i, h.buckets.(i)) :: !acc
  done;
  !acc

let sorted t =
  Hashtbl.fold (fun name inst acc -> (name, inst) :: acc) t.instruments []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let num = Json.num_to_string

let to_prometheus t =
  let buf = Buffer.create 512 in
  List.iter
    (fun (name, inst) ->
      match inst with
      | Counter c ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s counter\n%s %d\n" name name c.count)
      | Gauge g ->
          Buffer.add_string buf
            (Printf.sprintf "# TYPE %s gauge\n%s %s\n" name name (num g.level))
      | Histogram h ->
          Buffer.add_string buf (Printf.sprintf "# TYPE %s histogram\n" name);
          let cum = ref 0 in
          List.iter
            (fun (ub, n) ->
              cum := !cum + n;
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" name (num ub) !cum))
            (hist_buckets h);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" name h.total);
          Buffer.add_string buf (Printf.sprintf "%s_sum %s\n" name (num h.acc.sum));
          Buffer.add_string buf (Printf.sprintf "%s_count %d\n" name h.total))
    (sorted t);
  Buffer.contents buf

