let same_kind (a : Error.kind) (b : Error.kind) =
  match (a, b) with
  | Error.Safety_violation x, Error.Safety_violation y -> x.monitor = y.monitor
  | Error.Liveness_violation x, Error.Liveness_violation y ->
    x.monitor = y.monitor
  | Error.Deadlock _, Error.Deadlock _ -> true
  | Error.Unhandled_event x, Error.Unhandled_event y -> x.machine = y.machine
  | Error.Assertion_failure x, Error.Assertion_failure y ->
    x.machine = y.machine
  | Error.Machine_exception x, Error.Machine_exception y ->
    x.machine = y.machine
  | _, _ -> false

(* Execute once under lenient replay of [candidate]; if the same bug kind
   fires, return the executed run's exact trace. *)
let attempt config ~monitors ~kind ~seed body candidate =
  let strategy =
    Replay_strategy.lenient ~name:"lenient-replay" ~seed candidate
  in
  let result =
    Runtime.execute
      (Engine.runtime_config
         ?scenario:(Engine.scenario_obs ~steer:false config)
         config ~collect_log:false)
      strategy ~monitors:(monitors ()) ~name:"Harness" body
  in
  match result.Runtime.bug with
  | Some found when same_kind found kind ->
    Some (found, result.Runtime.bug_step, result.Runtime.choices)
  | Some _ | None -> None

(* [trace] without its choices in [[from_, from_ + len)], clipped to the
   trace. *)
let drop_chunk trace ~from_ ~len =
  let n = Trace.length trace in
  let stop = min n (from_ + len) in
  Trace.append (Trace.sub trace 0 from_) (Trace.sub trace stop (n - stop))

let shrink ?(rounds = 3) ?(monitors = fun () -> []) config
    (report : Error.report) body =
  let kind = report.Error.kind in
  let best = ref report in
  let improved = ref true in
  let round = ref 0 in
  while !improved && !round < rounds do
    improved := false;
    incr round;
    let n = Trace.length !best.Error.trace in
    let chunk = ref (max 1 (n / 4)) in
    while !chunk >= 1 do
      let pos = ref 0 in
      while !pos < Trace.length !best.Error.trace do
        let current = !best.Error.trace in
        let candidate = drop_chunk current ~from_:!pos ~len:!chunk in
        (match
           attempt config ~monitors ~kind
             ~seed:(Int64.of_int (!round * 1_000 + !pos))
             body candidate
         with
         | Some (found_kind, step, exact_trace)
           when Trace.length exact_trace < Trace.length current ->
           best :=
             {
               Error.kind = found_kind;
               step;
               trace = exact_trace;
               log = [];
             };
           improved := true
         | Some _ | None -> pos := !pos + !chunk)
      done;
      chunk := !chunk / 2
    done
  done;
  (* Recover the readable log for the final witness. *)
  let result = Engine.replay ~monitors config !best.Error.trace body in
  match result.Runtime.bug with
  | Some kind ->
    {
      Error.kind;
      step = result.Runtime.bug_step;
      trace = result.Runtime.choices;
      log = result.Runtime.log;
    }
  | None -> !best
