(* Slow reference for [Psharp.Pct_strategy]: the scheduler as first
   written, with the change steps in a [Set], a priority table grown per
   lookup and a closure call per enabled machine. The property in
   [test_strategies.ml] drives it and the production scheduler with the
   same arguments and requires every answer to agree, so the tight scan
   must draw priorities in exactly this order: [priority_of m > priority_of b]
   evaluates its right operand first, so a pick over [n >= 2] machines
   draws the undrawn ones in ascending enabled order, and a pick over one
   machine draws nothing. Not used by the library. *)

module Prng = Psharp.Prng
module Strategy = Psharp.Strategy

module Int_set = Set.Make (Int)

let make ~seed ~change_points ~max_steps ~iteration : Strategy.t =
  (* Domain-safety audit: the Prng, change-point set and priority table
     are all created fresh per execution and owned by the strategy value;
     no state escapes to other executions or worker domains. *)
  let rng =
    Prng.create ~seed:(Int64.add seed (Int64.of_int (iteration * 2 + 1)))
  in
  (* Steps at which the highest-priority enabled machine is demoted. *)
  let change_steps =
    let rec sample acc remaining =
      if remaining = 0 then acc
      else
        let s = Prng.int rng max_steps in
        if Int_set.mem s acc then sample acc remaining
        else sample (Int_set.add s acc) (remaining - 1)
    in
    sample Int_set.empty (min change_points max_steps)
  in
  (* Priority per machine creation index; 0 = not yet assigned (initial
     priorities are >= 1, demotions <= -1). An array rather than a table:
     [best] reads two priorities per enabled machine per step. *)
  let priorities = ref (Array.make 16 0) in
  let slot m =
    let a = !priorities in
    if m >= Array.length a then begin
      let bigger = Array.make (max (2 * Array.length a) (m + 1)) 0 in
      Array.blit a 0 bigger 0 (Array.length a);
      priorities := bigger
    end;
    !priorities
  in
  let lowest = ref 0 in
  let priority_of m =
    let a = slot m in
    match a.(m) with
    | 0 ->
      (* Random initial priority, strictly above any demotion slot. *)
      let p = 1 + Prng.int rng 1_000_000 in
      a.(m) <- p;
      p
    | p -> p
  in
  (* The highest-priority enabled machine, or -1 when none is enabled. *)
  let best enabled n =
    let acc = ref (-1) in
    for i = 0 to n - 1 do
      let m = enabled.(i) in
      if !acc < 0 then acc := m
      else begin
        let b = !acc in
        if priority_of m > priority_of b then acc := m
      end
    done;
    !acc
  in
  let next_schedule ~enabled ~n ~step =
    let b = best enabled n in
    if b < 0 then invalid_arg "Pct_strategy: empty enabled set";
    if Int_set.mem step change_steps then begin
      (* Demote the machine that would have run; rerun the choice. *)
      decr lowest;
      (slot b).(b) <- !lowest;
      let b' = best enabled n in
      if b' < 0 then b else b'
    end
    else b
  in
  {
    name = "pct";
    next_schedule;
    next_bool = (fun ~step:_ -> Prng.bool rng);
    next_int = (fun ~bound ~step:_ -> Prng.int rng bound);
  }

