type Event.t +=
  | Timer_tick
  | Timer_repeat
  | Timer_fire
  | Timer_stop

let unhandled ctx e =
  (* A timer only understands its own protocol; anything else is a
     harness wiring bug, reported like any other unhandled event
     rather than silently swallowed. *)
  raise
    (Error.Bug
       (Error.Unhandled_event
          {
            machine = Id.to_string (Runtime.self ctx);
            state = "-";
            event = Event.to_string e;
          }))

(* Under virtual time the timer arms its next firing on the clock instead
   of self-sending: between firings the (served) machine's inbox is empty,
   so a timer-bearing harness quiesces and the runtime's deadlock and
   liveness checks stay reachable (the self-send loop kept the machine
   permanently enabled, burning the full step bound). The fire/skip
   [nondet] is preserved: whether a given period's tick is delivered is
   still a recorded scheduling choice, as in the paper's Fig. 9 model. *)
let clocked_body ~target ~tick ~period ctx =
  Registry.register_machine ~machine:"Timer" ~kind:Registry.Machine ~states:1
    ~handlers:2;
  Runtime.send_after ctx (Runtime.self ctx) Timer_fire ~after:period;
  Runtime.serve ctx (function
    | Timer_stop -> Runtime.halt ctx
    | Timer_fire ->
      if Runtime.nondet ctx then Runtime.send_unless_pending ctx target (tick ());
      Runtime.send_after ctx (Runtime.self ctx) Timer_fire ~after:period
    | e -> unhandled ctx e)

let body ~target ~tick ctx =
  Registry.register_machine ~machine:"Timer" ~kind:Registry.Machine ~states:1
    ~handlers:2;
  Runtime.send ctx (Runtime.self ctx) Timer_repeat;
  Runtime.serve ctx (function
    | Timer_stop -> Runtime.halt ctx
    | Timer_repeat ->
      (* Coalescing send: a pending, not-yet-handled tick is not duplicated,
         as with a real periodic timer whose callback is still queued. *)
      if Runtime.nondet ctx then Runtime.send_unless_pending ctx target (tick ());
      Runtime.send ctx (Runtime.self ctx) Timer_repeat
    | e -> unhandled ctx e)

let create ctx ~target ?(tick = fun () -> Timer_tick) ?(period = 10)
    ?(name = "Timer") () =
  if period <= 0 then invalid_arg "Timer.create: period must be positive";
  if Runtime.clock_on ctx then
    Runtime.create ctx ~name (clocked_body ~target ~tick ~period)
  else Runtime.create ctx ~name (body ~target ~tick)
