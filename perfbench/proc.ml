(* Child processes and the files they leave: spawn, /proc readings,
   directory sizes and copies. *)

let spawn ~exe ~args ~log =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid = Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin fd fd in
  Unix.close fd;
  pid

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* CPU time (user+system) of every thread of [pid], in ns: the first field
   of each /proc/<pid>/task/<tid>/schedstat.  /proc/<pid>/stat holds the
   same total in 10 ms ticks, too coarse for sub-second windows. *)
let cpu_ns pid =
  let dir = Printf.sprintf "/proc/%d/task" pid in
  Array.fold_left
    (fun acc tid ->
      match read_file (Printf.sprintf "%s/%s/schedstat" dir tid) with
      | s -> acc +. float_of_string (List.hd (String.split_on_char ' ' s))
      | exception Sys_error _ -> acc)
    0. (Sys.readdir dir)

(* Peak resident set size (the "VmHWM:   N kB" line of /proc/<pid>/status),
   in MiB. *)
let peak_rss_mib pid =
  let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  match List.find_opt (fun l -> String.starts_with ~prefix:"VmHWM:" l) lines with
  | None -> Float.nan
  | Some l ->
      let v =
        String.split_on_char ' ' l |> List.filter (fun w -> w <> "") |> fun ws -> List.nth ws 1
      in
      float_of_string v /. 1024.

(* Wait for [pid] to exit; SIGKILL it after [timeout] seconds.  [true] when
   it exited on its own with status 0. *)
let wait_exit ?(timeout = 60.) pid =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid);
          false
        end
        else begin
          Unix.sleepf 0.005;
          go ()
        end
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
  in
  go ()

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let dir_bytes dir =
  Array.fold_left
    (fun acc f -> acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
    0 (Sys.readdir dir)

(* Flat copy: store directories hold files only. *)
let copy_dir src dst =
  rm_rf dst;
  mkdir_p dst;
  Array.iter
    (fun f ->
      let data = read_file (Filename.concat src f) in
      Out_channel.with_open_bin (Filename.concat dst f) (fun oc -> output_string oc data))
    (Sys.readdir src)

let mib bytes = float_of_int bytes /. (1024. *. 1024.)
