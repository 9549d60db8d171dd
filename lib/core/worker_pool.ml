type 'r step =
  | Ran of int
  | Found of 'r * int
  | Final of int

type stats = {
  executions : int;
  total_steps : int;
  elapsed : float;
  timed_out : bool;
}

let default_batch = 16

let resolve n =
  if n < 0 then invalid_arg "Worker_pool.resolve: negative worker count"
  else if n = 0 then Domain.recommended_domain_count ()
  else n

(* Spawning more domains than cores is never faster here: the iterations
   are independent, their set is worker-count-invariant, and OCaml 5 minor
   collections are stop-the-world across domains, so oversubscription just
   multiplies GC barriers. Clamp to the core count by default; the
   environment escape hatch lets tests exercise the genuinely-concurrent
   machinery on small machines. *)
let oversubscribe_requested () =
  match Sys.getenv_opt "PSHARP_OVERSUBSCRIBE" with
  | Some ("1" | "true" | "yes") -> true
  | _ -> false

let effective_workers ~workers ~max_iterations =
  let workers = max 1 (min (resolve workers) (max 1 max_iterations)) in
  if workers = 1 || oversubscribe_requested () then workers
  else max 1 (min workers (Domain.recommended_domain_count ()))

(* An [Atomic.t] is a one-word heap box; boxes allocated back to back end
   up on the same cache line, so a hot store to one (the claim cursor)
   would keep invalidating readers of its neighbour (the stop bound). A
   dead spacer allocation between them is a best-effort separator — the
   load-bearing fix is that the per-iteration counters live in
   worker-local records, not in shared atomics at all. *)
let spaced_atomic v =
  let a = Atomic.make v in
  ignore (Sys.opaque_identity (Array.make 15 0));
  a

(* Per-worker accumulator, allocated inside the worker's own domain (its
   own minor heap), so the hot per-iteration bumps never touch a cache
   line another domain writes. [found] is the worker's lowest result: it
   claims iterations in increasing order and a result lowers the stop
   bound to its own iteration, so a worker reports at most once. *)
type 'r local = {
  mutable found : ('r * int) option;
  mutable execs : int;
  mutable steps : int;
}

let hunt ?(batch = default_batch) ~workers ~max_iterations ?max_seconds ~init
    ?on_batch ~body () =
  if batch <= 0 then
    invalid_arg "Worker_pool.hunt: batch size must be positive";
  let workers = effective_workers ~workers ~max_iterations in
  let started = Unix.gettimeofday () in
  (* Early-stop bound: workers keep running iterations strictly below it.
     A plain boolean stop flag is not enough for a deterministic winner —
     when worker A reports at global iteration 7, worker B may not yet
     have {e started} iteration 3, and a boolean would make B exit without
     running it, crowning 7 as a non-minimal "first" bug that varies with
     the worker count and thread timing. Min-updating the bound instead
     lets every iteration below the best known result complete (and
     possibly lower the bound further), so the winner is the lowest
     reporting iteration at every worker count. Batch claims are monotone,
     so every iteration below a reported one is already claimed by some
     worker and will run to completion. A [Final] stop lowers the same
     bound. *)
  let stop_before = spaced_atomic max_int in
  let next = spaced_atomic 0 in (* batch-claim cursor *)
  let timed_out = Atomic.make false in
  let mu = Mutex.create () in
  let failure : (exn * Printexc.raw_backtrace) option ref = ref None in
  let locals : 'r local option array = Array.make workers None in
  (* Hoisted deadline: with no [max_seconds] the poll is a constant, not a
     [Unix.gettimeofday] syscall per check. *)
  let past_deadline =
    match max_seconds with
    | None -> fun () -> false
    | Some budget ->
      let deadline = started +. budget in
      fun () -> Unix.gettimeofday () >= deadline
  in
  let rec lower_stop_before v =
    let cur = Atomic.get stop_before in
    if v < cur && not (Atomic.compare_and_set stop_before cur v) then
      lower_stop_before v
  in
  let worker_loop w =
    let state = init ~worker:w in
    let acc = { found = None; execs = 0; steps = 0 } in
    locals.(w) <- Some acc;
    let flush () = match on_batch with Some f -> f state | None -> () in
    let count steps =
      acc.execs <- acc.execs + 1;
      acc.steps <- acc.steps + steps
    in
    let run_one g =
      (* Re-checked per iteration so a bound lowered mid-batch skips the
         claimed iterations above it (they cannot win) while iterations
         below it still run (they can). *)
      if g < Atomic.get stop_before then
        match body state ~iteration:g with
        | Ran steps -> count steps
        | Found (v, steps) ->
          count steps;
          acc.found <- Some (v, g);
          lower_stop_before g
        | Final steps ->
          count steps;
          lower_stop_before (g + 1)
    in
    (* Claim [batch] consecutive global iterations per shared-counter
       bump; the wall clock is polled once per claimed batch. *)
    let running = ref true in
    while !running do
      let base = Atomic.fetch_and_add next batch in
      if base >= max_iterations || base >= Atomic.get stop_before then
        running := false
      else if past_deadline () then begin
        Atomic.set timed_out true;
        running := false
      end
      else begin
        let stop = min (base + batch) max_iterations in
        for g = base to stop - 1 do
          run_one g
        done;
        flush ()
      end
    done;
    flush ()
  in
  let guarded w () =
    try worker_loop w
    with e ->
      let bt = Printexc.get_raw_backtrace () in
      Mutex.protect mu (fun () ->
          if !failure = None then failure := Some (e, bt));
      Atomic.set stop_before 0
  in
  let domains =
    List.init (workers - 1) (fun i -> Domain.spawn (guarded (i + 1)))
  in
  guarded 0 ();
  List.iter Domain.join domains;
  (match !failure with
   | Some (e, bt) -> Printexc.raise_with_backtrace e bt
   | None -> ());
  let winner, execs, steps =
    Array.fold_left
      (fun ((best, e, s) as acc) local ->
        match local with
        | None -> acc
        | Some l ->
          let best =
            match (best, l.found) with
            | Some (_, g0), Some (_, g) when g0 < g -> best
            | _, Some _ -> l.found
            | _, None -> best
          in
          (best, e + l.execs, s + l.steps))
      (None, 0, 0) locals
  in
  ( winner,
    {
      executions = execs;
      total_steps = steps;
      elapsed = Unix.gettimeofday () -. started;
      timed_out = Atomic.get timed_out;
    } )
