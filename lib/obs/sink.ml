type t = { emit : Event.t -> unit; flush : unit -> unit }

let noop = { emit = (fun _ -> ()); flush = (fun () -> ()) }

(* One scratch buffer is reused across events so steady-state emission
   allocates only the event payload itself. *)
let binary oc =
  let scratch = Buffer.create 256 in
  {
    emit =
      (fun ev ->
        Buffer.clear scratch;
        Event_codec.Binary.encode scratch ev;
        Buffer.output_buffer oc scratch);
    flush = (fun () -> flush oc);
  }

let binary_buffer buf =
  { emit = (fun ev -> Event_codec.Binary.encode buf ev); flush = (fun () -> ()) }

let tee a b =
  {
    emit =
      (fun ev ->
        a.emit ev;
        b.emit ev);
    flush =
      (fun () ->
        a.flush ();
        b.flush ());
  }
