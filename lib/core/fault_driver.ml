type Event.t += Fault_tick

(* Modeled like Timer: a self-message loop whose every decision is a
   recorded strategy draw, so crash schedules replay and shrink like any
   other nondeterminism. The crash instant is drawn uniformly over the
   driver's lifetime (a per-tick coin would concentrate every crash in the
   first few turns, never reaching machines the harness creates later);
   when the instant arrives, one crashable machine is chosen and crashed.
   The driver retires once it has crashed [max_crashes] machines, spent
   [max_ticks] turns, or the shared fault budget ran dry. *)
let body ~max_crashes ~max_ticks ctx =
  Registry.register_machine ~machine:"FaultDriver" ~kind:Registry.Machine
    ~states:1 ~handlers:1;
  Runtime.send ctx (Runtime.self ctx) Fault_tick;
  (* Scenario-steered mode: instead of drawing a crash instant up front,
     every tick asks the runtime for a victim ({!Runtime.scenario_victim}),
     which a steering scenario forces exactly when an armed [crash]
     clause's trigger has fired and a victim matches. The coin and the
     victim pick are ordinary recorded draws, so scenario crash schedules
     replay and shrink like random ones (replay installs the same
     observer, so this branch is taken consistently). *)
  let steered = Runtime.scenario_crash_slots ctx > 0 in
  let crashes = ref 0 in
  let ticks = ref 0 in
  let crash_at =
    ref (if steered then 0 else 1 + Runtime.nondet_int ctx max_ticks)
  in
  Runtime.serve ctx (function
    | Fault_tick ->
      incr ticks;
      if
        !crashes >= max_crashes || !ticks > max_ticks
        || Runtime.fault_budget_left ctx <= 0
      then Runtime.halt ctx
      else begin
        (if steered then begin
           match Runtime.crashable_machines ctx with
           | [] -> ()  (* no victim yet: ask again at the next tick *)
           | victims ->
             Option.iter
               (fun v ->
                 Runtime.crash ctx v;
                 incr crashes)
               (Runtime.scenario_victim ctx victims)
         end
         else if !ticks >= !crash_at then
           match Runtime.crashable_machines ctx with
           | [] -> ()  (* no victim yet: strike at the next tick instead *)
           | victims ->
             Runtime.crash ctx (Runtime.choose ctx victims);
             incr crashes;
             crash_at := !ticks + 1 + Runtime.nondet_int ctx max_ticks);
        Runtime.send ctx (Runtime.self ctx) Fault_tick
      end
    | e ->
      raise
        (Error.Bug
           (Error.Unhandled_event
              {
                machine = Id.to_string (Runtime.self ctx);
                state = "-";
                event = Event.to_string e;
              })))

let install ?(max_crashes = 1) ?(max_ticks = 40) ctx =
  if max_crashes <= 0 then
    invalid_arg "Fault_driver.install: max_crashes must be positive";
  if max_ticks <= 0 then
    invalid_arg "Fault_driver.install: max_ticks must be positive";
  let spec = Runtime.fault_spec ctx in
  if spec.Fault.crash && spec.Fault.budget > 0 then begin
    (* Under a crash-steering scenario, widen the allowance so every crash
       clause fits (rolling restarts need several) and give late triggers
       room: harness defaults tuned for one random crash retire the driver
       long before e.g. a quiescence-gated clause can fire. *)
    let max_crashes, max_ticks =
      if Runtime.scenario_crash_slots ctx > 0 then
        (max max_crashes (Runtime.scenario_crash_slots ctx), max max_ticks 160)
      else (max_crashes, max_ticks)
    in
    ignore
      (Runtime.create ctx ~name:"FaultDriver" (body ~max_crashes ~max_ticks))
  end
