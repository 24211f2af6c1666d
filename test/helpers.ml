(* Shared helpers for the gridbw test suite — now provided by the
   reusable gridbw_testkit library (test/testkit), which the fuzzer smoke
   tests and the examples consume too. *)

include Gridbw_testkit.Testkit

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
