(* Lenient replay: follow the recorded choices while they remain valid;
   afterwards (exhaustion or a stale schedule choice) continue randomly. *)
let lenient_strategy trace ~seed : Strategy.t =
  let choices = Array.of_list (Trace.to_list trace) in
  let cursor = ref 0 in
  let diverged = ref false in
  let rng = Prng.create ~seed in
  let next () =
    if !diverged || !cursor >= Array.length choices then None
    else begin
      let c = choices.(!cursor) in
      incr cursor;
      Some c
    end
  in
  let next_schedule ~enabled ~n ~step:_ =
    match next () with
    | Some (Trace.Schedule m) when Strategy.enabled_mem enabled n m -> m
    | Some _ | None ->
      diverged := true;
      enabled.(Prng.int rng n)
  in
  let next_bool ~step:_ =
    match next () with
    | Some (Trace.Bool b) -> b
    | Some _ | None ->
      diverged := true;
      Prng.bool rng
  in
  let next_int ~bound ~step:_ =
    match next () with
    (* A corrupted or hand-edited trace can carry a negative choice; treat
       it as a divergence rather than propagating an invalid value. *)
    | Some (Trace.Int i) when i >= 0 && i < bound -> i
    | Some _ | None ->
      diverged := true;
      Prng.int rng bound
  in
  { Strategy.name = "lenient-replay"; next_schedule; next_bool; next_int }

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
  let strategy = lenient_strategy candidate ~seed in
  let result =
    Runtime.execute
      (Engine.runtime_config
         ?scenario:(Engine.scenario_obs config)
         config ~collect_log:false)
      strategy ~monitors:(monitors ()) ~name:"Harness" body
  in
  match result.Runtime.bug with
  | Some found when same_kind found kind ->
    Some (found, result.Runtime.bug_step, result.Runtime.choices)
  | Some _ | None -> None

let drop_chunk list ~from_ ~len =
  List.filteri (fun i _ -> i < from_ || i >= from_ + len) list

let shrink ?(rounds = 3) ?(monitors = fun () -> []) config
    (report : Error.report) body =
  let kind = report.Error.kind in
  let best = ref report in
  let improved = ref true in
  let round = ref 0 in
  while !improved && !round < rounds do
    improved := false;
    incr round;
    let choices = Trace.to_list !best.Error.trace in
    let n = List.length choices in
    let chunk = ref (max 1 (n / 4)) in
    while !chunk >= 1 do
      let pos = ref 0 in
      while !pos < List.length (Trace.to_list !best.Error.trace) do
        let current = Trace.to_list !best.Error.trace in
        let candidate =
          Trace.of_list (drop_chunk current ~from_:!pos ~len:!chunk)
        in
        (match
           attempt config ~monitors ~kind
             ~seed:(Int64.of_int (!round * 1_000 + !pos))
             body candidate
         with
         | Some (found_kind, step, exact_trace)
           when Trace.length exact_trace < List.length current ->
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
