type seg = { from_ : float; until : float; rate : float }
type t = seg array

let validate (segs : seg array) =
  if Array.length segs = 0 then invalid_arg "Rate_profile.make: empty profile";
  Array.iteri
    (fun i s ->
      if
        not
          (Float.is_finite s.from_ && Float.is_finite s.until && Float.is_finite s.rate)
      then invalid_arg "Rate_profile.make: non-finite segment";
      if not (s.from_ < s.until) then invalid_arg "Rate_profile.make: empty or inverted segment";
      if not (s.rate > 0.) then invalid_arg "Rate_profile.make: rate must be positive";
      if i > 0 && not (segs.(i - 1).until <= s.from_) then
        invalid_arg "Rate_profile.make: overlapping or unsorted segments")
    segs;
  segs

let make segs = validate (Array.of_list segs)
let constant ~from_ ~until ~rate = validate [| { from_; until; rate } |]

let of_triples triples =
  validate (Array.map (fun (from_, until, rate) -> { from_; until; rate }) triples)

let to_triples (t : t) = Array.map (fun s -> (s.from_, s.until, s.rate)) t
let segments (t : t) = Array.to_list t
let start (t : t) = t.(0).from_
let finish (t : t) = t.(Array.length t - 1).until
let peak (t : t) = Array.fold_left (fun m s -> Float.max m s.rate) 0. t

let integral (t : t) =
  (* Kahan: the bitwise volume contract depends on this exact summation
     order, so the engine's closing step and every checker share it. *)
  let sum = ref 0. and comp = ref 0. in
  Array.iter
    (fun s ->
      let y = (s.rate *. (s.until -. s.from_)) -. !comp in
      let t' = !sum +. y in
      comp := (t' -. !sum) -. y;
      sum := t')
    t;
  !sum

let equal (a : t) (b : t) =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y ->
         Int64.equal (Int64.bits_of_float x.from_) (Int64.bits_of_float y.from_)
         && Int64.equal (Int64.bits_of_float x.until) (Int64.bits_of_float y.until)
         && Int64.equal (Int64.bits_of_float x.rate) (Int64.bits_of_float y.rate))
       a b

let pp ppf (t : t) =
  Format.fprintf ppf "@[<h>";
  Array.iteri
    (fun i s ->
      if i > 0 then Format.fprintf ppf ";@ ";
      Format.fprintf ppf "%.2f@@[%.2f,%.2f)" s.rate s.from_ s.until)
    t;
  Format.fprintf ppf "@]"
