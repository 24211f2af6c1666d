(* Shared helpers for the gridbw test suite — now provided by the
   reusable gridbw_testkit library (test/testkit), which the fuzzer smoke
   tests and the examples consume too. *)

include Gridbw_testkit.Testkit

(* Sorted ids of a run's accepted requests. *)
let accepted_ids (r : Gridbw_core.Types.result) =
  List.map (fun (a : Gridbw_alloc.Allocation.t) -> a.request.Gridbw_request.Request.id) r.accepted
  |> List.sort Int.compare

let gridbw_exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/gridbw.exe"

(* Run the gridbw binary: its exit status and stdout; stderr is dropped. *)
let gridbw args =
  let rd, wr = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
  let pid =
    Unix.create_process gridbw_exe (Array.of_list (gridbw_exe :: args)) Unix.stdin wr null
  in
  Unix.close wr;
  Unix.close null;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED code -> (code, out)
  | _ -> Alcotest.failf "gridbw %s: killed by a signal" (String.concat " " args)

(* Words allocated by [f ()], minor and major, less what measuring
   costs (the same probe around an empty function).  The minor count
   comes from [Gc.minor_words]: on OCaml 5.1 the minor part of
   [Gc.counters] counts the words allocated since the last minor
   collection at an eighth of their number. *)
let words_allocated f =
  let probe f =
    Gc.full_major ();
    let _, promoted0, major0 = Gc.counters () in
    let minor0 = Gc.minor_words () in
    let v = f () in
    let minor1 = Gc.minor_words () in
    let _, promoted1, major1 = Gc.counters () in
    (v, minor1 +. major1 -. promoted1 -. (minor0 +. major0 -. promoted0))
  in
  let _, overhead = probe (fun () -> 0) in
  let v, words = probe f in
  (v, words -. overhead)

(* Minor words allocated and words promoted per [n] units of work by
   [f ()], run from an empty minor heap: the two figures a batch kernel's
   allocation budget bounds.  Promotions depend on when minor
   collections fall, so the caller fixes the input and the heap
   settings it was measured with. *)
let gc_words_per ~n f =
  Gc.full_major ();
  let minor0 = Gc.minor_words () and _, promoted0, _ = Gc.counters () in
  let v = f () in
  let minor1 = Gc.minor_words () and _, promoted1, _ = Gc.counters () in
  let per x = x /. float_of_int n in
  (v, per (minor1 -. minor0), per (promoted1 -. promoted0))
