let diverged ~step message =
  raise (Error.Bug (Error.Replay_divergence { step; message }))

let make trace : Strategy.t =
  let n = Trace.length trace in
  let cursor = ref 0 in
  let next ~step expected =
    if !cursor >= n then
      diverged ~step
        (Printf.sprintf "trace exhausted after %d choices but a %s choice \
                         was requested"
           n expected);
    let c = Trace.get trace !cursor in
    incr cursor;
    c
  in
  let next_schedule ~enabled ~n ~step =
    match next ~step "schedule" with
    | Trace.Schedule m ->
      if Strategy.enabled_mem enabled n m then m
      else
        diverged ~step
          (Printf.sprintf "machine %d from trace is not enabled" m)
    | Trace.Bool _ | Trace.Int _ ->
      diverged ~step "expected a schedule choice, trace has a nondet choice"
  in
  let next_bool ~step =
    match next ~step "bool" with
    | Trace.Bool b -> b
    | Trace.Schedule _ | Trace.Int _ ->
      diverged ~step "expected a bool choice"
  in
  let next_int ~bound ~step =
    match next ~step "int" with
    | Trace.Int i when i >= 0 && i < bound -> i
    | Trace.Int i ->
      diverged ~step
        (Printf.sprintf "int choice %d out of bound %d" i bound)
    | Trace.Schedule _ | Trace.Bool _ ->
      diverged ~step "expected an int choice"
  in
  { name = "replay"; next_schedule; next_bool; next_int }

let lenient ~name ~seed trace : Strategy.t =
  let len = Trace.length trace in
  let cursor = ref 0 in
  let rng = Prng.create ~seed in
  (* Off the trace (spent, or abandoned at a mismatch) [next] answers
     [off], which no request accepts, so no option is allocated per
     choice. *)
  let off = Trace.Int (-1) in
  let next () =
    if !cursor >= len then off
    else begin
      let c = Trace.get trace !cursor in
      incr cursor;
      c
    end
  in
  let abandon () = cursor := len in
  let next_schedule ~enabled ~n ~step:_ =
    match next () with
    | Trace.Schedule m when Strategy.enabled_mem enabled n m -> m
    | _ ->
      abandon ();
      enabled.(Prng.int rng n)
  in
  let next_bool ~step:_ =
    match next () with
    | Trace.Bool b -> b
    | _ ->
      abandon ();
      Prng.bool rng
  in
  let next_int ~bound ~step:_ =
    match next () with
    (* A corrupted or hand-edited trace can carry a negative choice; treat
       it as a mismatch rather than propagating an invalid value. *)
    | Trace.Int i when i >= 0 && i < bound -> i
    | _ ->
      abandon ();
      Prng.int rng bound
  in
  { Strategy.name; next_schedule; next_bool; next_int }
