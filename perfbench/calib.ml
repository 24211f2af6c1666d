(* A host-speed probe.  The host this benchmark was written on (2 vCPUs,
   shared) changed speed by ±30% within minutes, and every timed metric
   moved with it.  Timed metrics are therefore reported at a reference
   host speed: each is scaled by how long this fixed piece of work takes
   right now against [reference_ns].  The work is the benchmark's own, so
   no change to gridbw moves it; its mix (hashing, float boxing, sorting,
   string building) resembles the daemon's. *)

let reference_ns = 20e6
let sink = ref 0.

let once () =
  let t0 = Monotonic_clock.now () in
  let h = Hashtbl.create 4096 in
  for i = 0 to 100_000 do
    Hashtbl.replace h (i land 8191) (float_of_int i *. 1.5)
  done;
  let l = List.sort Float.compare (List.init 20_000 (fun i -> float_of_int ((i * 7919) mod 20_011))) in
  let b = Buffer.create 4096 in
  List.iteri (fun i x -> if i land 7 = 0 then Buffer.add_string b (Printf.sprintf "%.3f," x)) l;
  sink := !sink +. float_of_int (Buffer.length b) +. Hashtbl.find h 5;
  Int64.to_float (Int64.sub (Monotonic_clock.now ()) t0)

(* How many times slower than the reference the host runs now (median of
   [reps] probes): divide a time by it, multiply a rate by it. *)
let index ?(reps = 3) () =
  let xs = Array.init reps (fun _ -> once ()) in
  Array.sort Float.compare xs;
  xs.(reps / 2) /. reference_ns
