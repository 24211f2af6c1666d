(* The daemon's decision table.  See decisions.mli. *)

type state = Granted | Cancelled | Refused

let page_bits = 9
let page_rows = 1 lsl page_bits
let page_mask = page_rows - 1

(* A row's code: its state in the low two bits and, above them, the
   grant slot of a granted or cancelled row or the reason number of a
   refused one; -1 before the row's first decision is written. *)
let granted = 0
let cancelled = 1
let refused = 2

type t = {
  mutable index : int array;  (** row numbers, -1 where empty; a power-of-two length *)
  mutable shift : int;  (** [Sys.int_size - log2 (length index)] *)
  mutable rows : int;
  mutable ids : int array array;  (** by page, as are the arrays below *)
  mutable codes : int array array;
  mutable grants : int;  (** grant slots used *)
  mutable bws : Float.Array.t array;
  mutable sigmas : Float.Array.t array;
  mutable taus : Float.Array.t array;
  mutable bookings : int array array;
  mutable reasons : string array;  (** interned, by number *)
}

let initial_bits = 6

let create () =
  {
    index = Array.make (1 lsl initial_bits) (-1);
    shift = Sys.int_size - initial_bits;
    rows = 0;
    ids = [||];
    codes = [||];
    grants = 0;
    bws = [||];
    sigmas = [||];
    taus = [||];
    bookings = [||];
    reasons = [||];
  }

let length t = t.rows
let slots t = Array.length t.index

(* Fibonacci hashing: the top bits of the id times an odd constant near
   2^63 / golden ratio, so runs of consecutive ids spread out. *)
let home t id = (id * 0x4F1BBCDCBFA53E0B) lsr t.shift

let id_at t r = Array.unsafe_get (Array.unsafe_get t.ids (r lsr page_bits)) (r land page_mask)

let code_at t r =
  Array.unsafe_get (Array.unsafe_get t.codes (r lsr page_bits)) (r land page_mask)

let set_code t r c =
  Array.unsafe_set (Array.unsafe_get t.codes (r lsr page_bits)) (r land page_mask) c

(* The slot holding [id], or the empty slot where its probe ends. *)
let rec probe t index mask id s =
  let r = Array.unsafe_get index s in
  if r < 0 || id_at t r = id then s else probe t index mask id ((s + 1) land mask)

let slot_of t id = probe t t.index (Array.length t.index - 1) id (home t id)
let find t id = Array.unsafe_get t.index (slot_of t id)

let grow_index t =
  let index = Array.make (2 * Array.length t.index) (-1) in
  t.index <- index;
  t.shift <- t.shift - 1;
  for r = 0 to t.rows - 1 do
    Array.unsafe_set index (slot_of t (id_at t r)) r
  done

(* [dir] with room for page [p], its directory doubled when full. *)
let with_page dir p page =
  let dir =
    if p < Array.length dir then dir
    else begin
      let d = Array.make (Int.max 4 (2 * Array.length dir)) page in
      Array.blit dir 0 d 0 (Array.length dir);
      d
    end
  in
  dir.(p) <- page;
  dir

(* The row of [id], added (with code -1) if the id is new. *)
let row_of t id =
  if 2 * (t.rows + 1) > Array.length t.index then grow_index t;
  let s = slot_of t id in
  let r = Array.unsafe_get t.index s in
  if r >= 0 then r
  else begin
    let r = t.rows in
    if r land page_mask = 0 then begin
      let p = r lsr page_bits in
      t.ids <- with_page t.ids p (Array.make page_rows 0);
      t.codes <- with_page t.codes p (Array.make page_rows (-1))
    end;
    Array.unsafe_set (Array.unsafe_get t.ids (r lsr page_bits)) (r land page_mask) id;
    t.rows <- r + 1;
    Array.unsafe_set t.index s r;
    r
  end

let new_grant t =
  let g = t.grants in
  if g land page_mask = 0 then begin
    let p = g lsr page_bits in
    t.bws <- with_page t.bws p (Float.Array.create page_rows);
    t.sigmas <- with_page t.sigmas p (Float.Array.create page_rows);
    t.taus <- with_page t.taus p (Float.Array.create page_rows);
    t.bookings <- with_page t.bookings p (Array.make page_rows 0)
  end;
  t.grants <- g + 1;
  g

let grant t id ~bw ~sigma ~tau ~booking =
  let r = row_of t id in
  let c = code_at t r in
  (* a regranted id keeps its grant slot *)
  let g = if c >= 0 && c land 3 <> refused then c lsr 2 else new_grant t in
  let p = g lsr page_bits and i = g land page_mask in
  Float.Array.unsafe_set (Array.unsafe_get t.bws p) i bw;
  Float.Array.unsafe_set (Array.unsafe_get t.sigmas p) i sigma;
  Float.Array.unsafe_set (Array.unsafe_get t.taus p) i tau;
  Array.unsafe_set (Array.unsafe_get t.bookings p) i booking;
  set_code t r ((g lsl 2) lor granted)

let rec intern_from t reason i =
  if i = Array.length t.reasons then begin
    t.reasons <- Array.append t.reasons [| reason |];
    i
  end
  else if String.equal (Array.unsafe_get t.reasons i) reason then i
  else intern_from t reason (i + 1)

let refuse t id reason =
  let r = row_of t id in
  set_code t r ((intern_from t reason 0 lsl 2) lor refused)

(* The code of a decided row; raises on any other number. *)
let code t r =
  if r < 0 || r >= t.rows then invalid_arg "Decisions: no such row";
  code_at t r

let cancel t r =
  let c = code t r in
  if c land 3 = granted then set_code t r (c lor cancelled)

let state t r =
  match code t r land 3 with 0 -> Granted | 1 -> Cancelled | _ -> Refused

(* The grant slot of a granted or cancelled row. *)
let slot t r =
  let c = code t r in
  if c land 3 = refused then invalid_arg "Decisions: a refused row has no window";
  c lsr 2

let float_of pages g = Float.Array.get pages.(g lsr page_bits) (g land page_mask)
let bw t r = float_of t.bws (slot t r)
let sigma t r = float_of t.sigmas (slot t r)
let tau t r = float_of t.taus (slot t r)

let booking t r =
  let g = slot t r in
  t.bookings.(g lsr page_bits).(g land page_mask)

let reason t r =
  let c = code t r in
  if c land 3 <> refused then invalid_arg "Decisions: not a refused row";
  t.reasons.(c lsr 2)
