let make ~seed ~change_points ~max_steps ~iteration : Strategy.t =
  (* Domain-safety audit: all state is created fresh per execution and
     owned by the strategy value; none escapes to other executions. *)
  let rng =
    Prng.create ~seed:(Int64.add seed (Int64.of_int (iteration * 2 + 1)))
  in
  (* Demotion steps: distinct draws kept sorted by insertion, read through
     a cursor and closed by a [max_int] sentinel. *)
  let k = min change_points max_steps in
  let changes = Array.make (k + 1) max_int in
  let drawn = ref 0 in
  while !drawn < k do
    let s = Prng.int rng max_steps in
    let j = ref 0 in
    while changes.(!j) < s do incr j done;
    if changes.(!j) <> s then begin
      Array.blit changes !j changes (!j + 1) (!drawn - !j);
      changes.(!j) <- s;
      incr drawn
    end
  done;
  let cursor = ref 0 in
  (* Priority per machine creation index; 0 = not yet drawn. Initial
     priorities are >= 1; the i-th demotion (i = [!cursor]) sets -i. *)
  let priorities = ref (Array.make 16 0) in
  (* Room for every index of the sorted [enabled.(0 .. n-1)]: one
     allocation of the size that growing for each index in turn reaches. *)
  let room enabled n =
    let a = !priorities in
    if enabled.(n - 1) >= Array.length a then begin
      let len = ref (Array.length a) in
      for i = 0 to n - 1 do
        if enabled.(i) >= !len then len := max (2 * !len) (enabled.(i) + 1)
      done;
      priorities := Array.make !len 0;
      Array.blit a 0 !priorities 0 (Array.length a)
    end
  in
  (* The highest-priority machine of [enabled.(0 .. n-1)], drawing undrawn
     priorities in ascending order; the first of equals wins. *)
  let scan enabled n =
    room enabled n;
    let a = !priorities in
    let best = ref (-1) and best_p = ref min_int in
    for i = 0 to n - 1 do
      let m = Array.unsafe_get enabled i in
      if Array.unsafe_get a m = 0 then
        Array.unsafe_set a m (1 + Prng.int rng 1_000_000);
      let p = Array.unsafe_get a m in
      if p > !best_p then begin best := m; best_p := p end
    done;
    !best
  in
  let next_schedule ~enabled ~n ~step =
    if n <= 0 then invalid_arg "Pct_strategy: empty enabled set";
    (* A single enabled machine runs without drawing a priority. *)
    let b = if n = 1 then enabled.(0) else scan enabled n in
    if step < Array.unsafe_get changes !cursor then b
    else begin
      (* Demote the machine that would have run; rerun the choice. *)
      incr cursor;
      room enabled n;
      (!priorities).(b) <- - !cursor;
      if n = 1 then b else scan enabled n
    end
  in
  {
    name = "pct";
    next_schedule;
    next_bool = (fun ~step:_ -> Prng.bool rng);
    next_int = (fun ~bound ~step:_ -> Prng.int rng bound);
  }

let factory ~seed ~change_points ~max_steps () =
  if change_points < 0 || max_steps < 0 then
    invalid_arg "Pct_strategy.factory: negative change_points or max_steps";
  Strategy.stateless ~name:"pct" (fun ~iteration ->
      make ~seed ~change_points ~max_steps ~iteration)
