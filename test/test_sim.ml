open Helpers
module Event_queue = Gridbw_sim.Event_queue
module Engine = Gridbw_sim.Engine
module Rng = Gridbw_prng.Rng

(* Pop until empty. *)
let drain q =
  let rec loop acc = match Event_queue.pop q with None -> List.rev acc | Some e -> loop (e :: acc) in
  loop []

let pops_in_time_order () =
  let q = Event_queue.create () in
  List.iter (fun t -> Event_queue.push q ~time:t (int_of_float t)) [ 5.; 1.; 3.; 2.; 4. ];
  let order = List.map fst (drain q) in
  Alcotest.(check (list (float 0.))) "sorted" [ 1.; 2.; 3.; 4.; 5. ] order

let fifo_on_ties () =
  let q = Event_queue.create () in
  List.iter (fun v -> Event_queue.push q ~time:1.0 v) [ "a"; "b"; "c" ];
  Event_queue.push q ~time:0.5 "first";
  let payloads = List.map snd (drain q) in
  Alcotest.(check (list string)) "stable ties" [ "first"; "a"; "b"; "c" ] payloads

let peek_does_not_remove () =
  let q = Event_queue.create () in
  Event_queue.push q ~time:2.0 ();
  (match Event_queue.peek q with
  | Some (t, ()) -> check_approx "peek time" 2.0 t
  | None -> Alcotest.fail "peek on non-empty");
  Alcotest.(check int) "still there" 1 (Event_queue.length q)

let interleaved_operations () =
  let q = Event_queue.create ~initial_capacity:1 () in
  Event_queue.push q ~time:3.0 3;
  Event_queue.push q ~time:1.0 1;
  (match Event_queue.pop q with
  | Some (_, 1) -> ()
  | _ -> Alcotest.fail "expected payload 1");
  Event_queue.push q ~time:2.0 2;
  Alcotest.(check (list int)) "remaining order" [ 2; 3 ] (List.map snd (drain q));
  Alcotest.(check bool) "empty at end" true (Event_queue.is_empty q)

let rejects_nan () =
  let q = Event_queue.create () in
  Alcotest.check_raises "nan time" (Invalid_argument "Event_queue.push: non-finite time")
    (fun () -> Event_queue.push q ~time:Float.nan ())

let grows_past_capacity () =
  let q = Event_queue.create ~initial_capacity:2 () in
  for i = 999 downto 0 do
    Event_queue.push q ~time:(float_of_int i) i
  done;
  Alcotest.(check int) "all stored" 1000 (Event_queue.length q);
  Alcotest.(check (list int)) "drains sorted" (List.init 1000 Fun.id)
    (List.map snd (drain q))

let prop_drain_sorted =
  qcase ~count:50 "qcheck: drain is sorted and stable"
    QCheck2.Gen.(list_size (int_range 0 200) (int_range 0 20))
    (fun times ->
      let q = Event_queue.create () in
      List.iteri (fun i t -> Event_queue.push q ~time:(float_of_int t) (t, i)) times;
      let drained = List.map snd (drain q) in
      let expected = List.stable_sort (fun (a, _) (b, _) -> Int.compare a b)
          (List.mapi (fun i t -> (t, i)) times) in
      drained = expected)

(* --- engine --- *)

let clock_advances () =
  let e = Engine.create () in
  let seen = ref [] in
  Engine.schedule e ~time:2.0 (fun e -> seen := ("b", Engine.now e) :: !seen);
  Engine.schedule e ~time:1.0 (fun e -> seen := ("a", Engine.now e) :: !seen);
  Engine.run e;
  Alcotest.(check (list (pair string (float 0.)))) "order and clock" [ ("a", 1.0); ("b", 2.0) ]
    (List.rev !seen);
  check_approx "final clock" 2.0 (Engine.now e)

let schedule_past_raises () =
  let e = Engine.create ~start:5.0 () in
  Alcotest.check_raises "past" (Invalid_argument "Engine.schedule: time is in the past")
    (fun () -> Engine.schedule e ~time:4.0 (fun _ -> ()))

let after_negative_raises () =
  let e = Engine.create () in
  Alcotest.check_raises "negative" (Invalid_argument "Engine.after: negative delay") (fun () ->
      Engine.after e ~delay:(-1.0) (fun _ -> ()))

let handlers_can_reschedule () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec tick engine =
    incr count;
    if !count < 5 then Engine.after engine ~delay:1.0 tick
  in
  Engine.schedule e ~time:0.0 tick;
  Engine.run e;
  Alcotest.(check int) "five ticks" 5 !count;
  check_approx "clock at last tick" 4.0 (Engine.now e)

let run_until_stops () =
  let e = Engine.create () in
  let fired = ref 0 in
  List.iter (fun t -> Engine.schedule e ~time:t (fun _ -> incr fired)) [ 1.0; 2.0; 3.0; 10.0 ];
  Engine.run ~until:3.5 e;
  Alcotest.(check int) "three fired" 3 !fired;
  check_approx "clock moved to until" 3.5 (Engine.now e);
  Alcotest.(check int) "one pending" 1 (Engine.pending e)

let same_time_self_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~time:1.0 (fun e ->
      log := "outer" :: !log;
      Engine.schedule e ~time:1.0 (fun _ -> log := "inner" :: !log));
  Engine.run e;
  Alcotest.(check (list string)) "inner runs after outer" [ "outer"; "inner" ] (List.rev !log)

let suites =
  [
    ( "event-queue",
      [
        case "pops in time order" pops_in_time_order;
        case "FIFO on ties" fifo_on_ties;
        case "peek does not remove" peek_does_not_remove;
        case "interleaved push/pop" interleaved_operations;
        case "rejects NaN time" rejects_nan;
        case "grows past capacity" grows_past_capacity;
        prop_drain_sorted;
      ] );
    ( "engine",
      [
        case "clock advances with handlers" clock_advances;
        case "schedule in the past raises" schedule_past_raises;
        case "negative delay raises" after_negative_raises;
        case "handlers reschedule" handlers_can_reschedule;
        case "run ~until stops and advances clock" run_until_stops;
        case "same-time self-schedule" same_time_self_schedule;
      ] );
  ]
