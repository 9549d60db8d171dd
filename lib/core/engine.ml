type strategy_spec =
  | Random
  | Pct of { change_points : int }
  | Fuzz of { corpus_cap : int }

type reduction = No_reduction | Hb_track

type coverage_mode =
  | Off
  | Collect
  | Plateau of { after : int; family : Coverage.family_kind option }

type resume = {
  first_iteration : int;
  prior_coverage : Coverage.t option;
  exchange : Fuzz_strategy.Exchange.t option;
}

let fresh = { first_iteration = 0; prior_coverage = None; exchange = None }

type config = {
  strategy : strategy_spec;
  seed : int64;
  max_executions : int;
  max_seconds : float option;
  max_steps : int;
  liveness_grace : int option;
  deadlock_is_bug : bool;
  collect_log_on_bug : bool;
  workers : int;
  coverage_mode : coverage_mode;
  faults : Fault.spec;
  reduce : reduction;
  clock : Clock.config option;
  resume : resume;
  fuzz_energy : bool;
  fuzz_mutate_faults : bool;
  scenario : Scenario.t option;
  scenario_audit : (Scenario.Obs.t -> unit) option;
}

let default_config =
  {
    strategy = Random;
    seed = 0L;
    max_executions = 10_000;
    max_seconds = None;
    max_steps = 5_000;
    liveness_grace = None;
    deadlock_is_bug = true;
    collect_log_on_bug = false;
    workers = 1;
    coverage_mode = Off;
    faults = Fault.none;
    reduce = No_reduction;
    clock = None;
    resume = fresh;
    fuzz_energy = false;
    fuzz_mutate_faults = false;
    scenario = None;
    scenario_audit = None;
  }

type stats = {
  executions : int;
  elapsed : float;
  total_steps : int;
  coverage : Coverage.t option;
  plateaued : bool;
  timed_out : bool;
}

type outcome =
  | Bug_found of Error.report * stats
  | No_bug of stats

let factory_of config =
  match config.strategy with
  | Random -> Random_strategy.factory ~seed:config.seed
  | Pct { change_points } ->
    Pct_strategy.factory ~seed:config.seed ~change_points
      ~max_steps:config.max_steps ()
  | Fuzz { corpus_cap } ->
    Fuzz_strategy.factory ~seed:config.seed ~corpus_cap
      ?exchange:config.resume.exchange ~energy:config.fuzz_energy
      ~mutate_faults:config.fuzz_mutate_faults ()


(* One execution's runtime configuration, shared by the exploration loop,
   [replay] and the shrinker. [deadline] is the run's absolute wall-clock
   bound (started + max_seconds); the runtime checks it inside the step
   loop, so a single long execution cannot overshoot the budget (replay
   and the shrinker never get one — a recorded schedule must always
   re-execute in full). Faults and the clock come from [config]: fault
   draws are ordinary recorded choices and clock advances are a
   deterministic function of the schedule, so a fault- or clock-found
   trace only replays and shrinks under the same spec and time model.
   [scenario] is the execution's fresh observer (see [scenario_obs]);
   scenario-forced draws are ordinary recorded choices, so a replay
   observes without steering and retraces them like any other. *)
let runtime_config ?coverage ?hb ?deadline ?scenario config ~collect_log =
  {
    Runtime.max_steps = config.max_steps;
    liveness_grace = config.liveness_grace;
    deadlock_is_bug = config.deadlock_is_bug;
    collect_log;
    coverage;
    hb;
    faults = config.faults;
    deadline;
    clock = config.clock;
    scenario;
  }

(* --- Scenario constraining ---------------------------------------------- *)

(* Per-execution scenario observer: fresh mutable state (journal, trigger
   latches) for each execution, created from the immutable compiled
   scenario. [Scenario.Obs.create] validates that [config.faults] arms
   what the clauses need — callers go through {!Scenario.arm} before
   building the config (the CLI checks the rest), so a raise here is a
   programming error at the call site, not a user input error. *)
let scenario_obs ~steer config =
  match config.scenario with
  | None -> None
  | Some s -> Some (Scenario.Obs.create s ~faults:config.faults ~steer)

(* Invoked once per execution, after the runtime returns, with the
   execution's fully-populated observer (journal, wedge count, violation
   list). In parallel runs the callback fires on worker domains and must
   be thread-safe. *)
let audit_scenario config sobs =
  match (config.scenario_audit, sobs) with
  | Some f, Some o -> f o
  | _ -> ()

let no_monitors () = []

let replay ?(monitors = no_monitors) config trace body =
  let sobs = scenario_obs ~steer:false config in
  let result =
    Runtime.execute
      (runtime_config ?scenario:sobs config ~collect_log:true)
      (Replay_strategy.make trace) ~monitors:(monitors ()) ~name:"Harness"
      body
  in
  audit_scenario config sobs;
  result

let report_of kind (result : Runtime.exec_result) =
  {
    Error.kind;
    step = result.Runtime.bug_step;
    trace = result.Runtime.choices;
    log = result.Runtime.log;
  }

(* The report of a run's bug, optionally re-executing the schedule with
   logging on to capture a readable trace log. *)
let finish_report ~monitors config ~kind (result : Runtime.exec_result) body =
  let report = report_of kind result in
  if config.collect_log_on_bug then
    {
      report with
      Error.log = (replay ~monitors config result.Runtime.choices body).Runtime.log;
    }
  else report

(* --- Coverage collection ----------------------------------------------- *)

(* Coverage is collected when explicitly requested, when a plateau bound
   needs it, when the strategy wants feedback (fuzz), or when a campaign
   resume carries prior coverage (which seeds the accumulator so novelty
   and the plateau are judged relative to history). *)
let wants_coverage config (factory : Strategy.factory) =
  config.coverage_mode <> Off
  || config.resume.prior_coverage <> None
  || factory.Strategy.feedback <> None

(* Did this novelty count as plateau gain? Unkeyed, any core-family
   novelty does (the historical rule; schedule and hb fingerprints never
   count — see coverage.mli). Keyed on a family, only that family's
   novelty resets the counter, so e.g. [--plateau-family hb] stops a long
   fuzz campaign once it stops finding new partial orders even while
   coarser families still trickle in. *)
let plateau_gain family novelty =
  match family with
  | None -> Coverage.novel_core novelty
  | Some fam -> Coverage.novel_in novelty fam

(* The run's accumulator, seeded with any prior coverage. [no_gain]
   counts consecutive executions that brought no plateau gain: per
   execution with one worker, per merged shard with several (batch
   granularity, the same user-visible semantics). [mu] guards [acc] while
   shards merge into it. *)
type collector = {
  acc : Coverage.t;
  family : Coverage.family_kind option;
  no_gain : int Atomic.t;
  mu : Mutex.t;
}

let collector_of config =
  let acc = Coverage.create () in
  Option.iter
    (fun prior -> ignore (Coverage.absorb ~into:acc prior))
    config.resume.prior_coverage;
  {
    acc;
    family =
      (match config.coverage_mode with
       | Plateau { family; _ } -> family
       | Off | Collect -> None);
    no_gain = Atomic.make 0;
    mu = Mutex.create ();
  }

let note_gain c novelty ~executions =
  if plateau_gain c.family novelty then Atomic.set c.no_gain 0
  else ignore (Atomic.fetch_and_add c.no_gain executions)

(* Where a worker records coverage, chosen once per run from the worker
   count. A single worker owns the accumulator: the runtime records each
   execution straight into it, and novelty is read off its growth since a
   [Coverage.mark]. Each worker of a multi-domain run records an
   execution into a fresh map and folds it into a private [delta], merged
   into the accumulator only at batch boundaries, so the per-execution
   path takes no lock; [absorb] is commutative, so the merged map equals
   the single worker's. [view], kept for feedback strategies only, is the
   worker's cumulative map: it answers per-execution novelty without
   reading the shared accumulator. *)
type sink =
  | Nowhere
  | Direct of collector
  | Shard of {
      collector : collector;
      mutable delta : Coverage.t;
      mutable pending : int;  (* executions folded into [delta] *)
      view : Coverage.t option;
    }

let sink_of ~workers (factory : Strategy.factory) = function
  | None -> Nowhere
  | Some c when workers = 1 -> Direct c
  | Some collector ->
    Shard
      {
        collector;
        delta = Coverage.create ();
        pending = 0;
        view =
          (if factory.Strategy.feedback <> None then Some (Coverage.create ())
           else None);
      }

(* The map one execution records into. *)
let exec_map = function
  | Nowhere -> None
  | Direct c -> Some c.acc
  | Shard _ -> Some (Coverage.create ())

(* One execution's worth of coverage bookkeeping: file the canonical
   partial-order fingerprint (when hb is tracked) and the schedule
   fingerprint, count the novelty toward the plateau and feed it back to
   the strategy. [mark] is the single worker's accumulator size before the
   execution. *)
let observe sink (factory : Strategy.factory) hb mark map
    (result : Runtime.exec_result) =
  match map with
  | None -> ()
  | Some m ->
    (match hb with
     | Some h -> Coverage.note_hb m ~fingerprint:(Hb.canonical_fingerprint h)
     | None -> ());
    Coverage.note_execution m
      ~fingerprint:(Coverage.fingerprint result.Runtime.choices);
    let novelty =
      match (sink, mark) with
      | Direct c, Some mark ->
        let novelty = Coverage.novelty_since c.acc mark in
        note_gain c novelty ~executions:1;
        Some novelty
      | Shard s, _ ->
        ignore (Coverage.absorb ~into:s.delta m);
        s.pending <- s.pending + 1;
        Option.map (fun view -> Coverage.absorb_tagged ~into:view m) s.view
      | _ -> None
    in
    (match (factory.Strategy.feedback, novelty) with
     | Some f, Some novelty -> f ~trace:result.Runtime.choices ~novelty
     | _ -> ())

(* Batch-boundary merge: the only place a shard meets the accumulator
   (Worker_pool invokes it between batches and at exit). *)
let flush = function
  | Shard s when s.pending > 0 ->
    let delta = s.delta and pending = s.pending in
    s.delta <- Coverage.create ();
    s.pending <- 0;
    let c = s.collector in
    let novelty =
      Mutex.protect c.mu (fun () -> Coverage.absorb_tagged ~into:c.acc delta)
    in
    note_gain c novelty ~executions:pending
  | _ -> ()

let hit_plateau config sink =
  match (config.coverage_mode, sink) with
  | Plateau { after; _ }, (Direct c | Shard { collector = c; _ }) ->
    Atomic.get c.no_gain >= after
  | _ -> false

(* --- The exploration loop ---------------------------------------------- *)

(* Every execution runs the same body; the mode only decides what its
   result does. [Run] stops at the lowest bug or at a plateau, [Explore]
   always collects coverage and stops only at a plateau (coverage at a
   fixed budget stays comparable across strategies), and [Survey] tallies
   bug kinds and never stops early. *)
type mode = Run | Explore | Survey

type found = Bug of Error.kind * Runtime.exec_result | Plateau

(* Per-worker state, built in the worker's own domain. [kinds] is the
   survey tally: rendered bug kind -> first report, count, first
   iteration. A worker claims iterations in increasing order, so its
   first report of a kind is its lowest. *)
type worker = {
  factory : Strategy.factory;
  hb : Hb.t option;  (* the worker's recorder, reset per execution *)
  sink : sink;
  kinds : (string, Error.report * int * int) Hashtbl.t;
}

let tally w ~iteration kind result =
  let key = Error.kind_to_string kind in
  match Hashtbl.find_opt w.kinds key with
  | Some (report, n, first) -> Hashtbl.replace w.kinds key (report, n + 1, first)
  | None -> Hashtbl.replace w.kinds key (report_of kind result, 1, iteration)

(* Fuzz without an exchange hub keeps its corpus across executions, so it
   runs on one worker, with a notice. *)
let plan_workers config (factory : Strategy.factory) =
  let requested = Worker_pool.resolve config.workers in
  if requested > 1 && config.max_executions > 1
     && not factory.Strategy.parallel_safe
  then begin
    Printf.eprintf
      "[engine] strategy %s keeps state across executions; ignoring \
       workers=%d and exploring sequentially\n\
       %!"
      factory.Strategy.factory_name requested;
    1
  end
  else
    Worker_pool.effective_workers ~workers:requested
      ~max_iterations:config.max_executions

(* The one exploration loop. Each worker owns a factory built from the
   same config and runs the global iterations the pool hands it, so the
   set of schedules explored is the same at every worker count (seeds
   derive from the global iteration, not from the worker); one worker runs
   inline in the calling domain. Returns the lowest [found], the run's
   stats and the workers (for the survey tally). *)
let drive ~mode ~monitors config body =
  let factory = factory_of config in
  let workers = plan_workers config factory in
  let collector =
    if mode = Explore || (mode = Run && wants_coverage config factory) then
      Some (collector_of config)
    else None
  in
  let deadline =
    Option.map (fun b -> Unix.gettimeofday () +. b) config.max_seconds
  in
  let exec_timed_out = Atomic.make false in
  let registered = ref [] and mu = Mutex.create () in
  let init ~worker =
    let factory = if worker = 0 then factory else factory_of config in
    let w =
      {
        factory;
        (* partial orders only ever land in coverage *)
        hb =
          (if config.reduce = Hb_track && collector <> None then
             Some (Hb.create ())
           else None);
        sink = sink_of ~workers factory collector;
        kinds = Hashtbl.create 8;
      }
    in
    Mutex.protect mu (fun () -> registered := w :: !registered);
    w
  in
  let execute w ~iteration =
    let first = config.resume.first_iteration in
    match w.factory.Strategy.fresh ~iteration:(first + iteration) with
    | None ->
      Printf.ksprintf invalid_arg
        "Engine: strategy factory %s returned no strategy"
        w.factory.Strategy.factory_name
    | Some strategy ->
      Option.iter Hb.reset w.hb;
      let sobs = scenario_obs ~steer:true config in
      let map = exec_map w.sink in
      let mark =
        match w.sink with
        | Direct c -> Some (Coverage.mark c.acc)
        | Nowhere | Shard _ -> None
      in
      let result =
        Runtime.execute
          (runtime_config ?coverage:map ?hb:w.hb ?deadline ?scenario:sobs
             config ~collect_log:false)
          strategy ~monitors:(monitors ()) ~name:"Harness" body
      in
      observe w.sink w.factory w.hb mark map result;
      audit_scenario config sobs;
      let steps = result.Runtime.steps in
      (match (result.Runtime.bug, mode) with
       | Some kind, Run -> Worker_pool.Found (Bug (kind, result), steps)
       | Some kind, Survey ->
         tally w ~iteration kind result;
         Worker_pool.Ran steps
       | _ ->
         if result.Runtime.timed_out then begin
           Atomic.set exec_timed_out true;
           Worker_pool.Final steps
         end
         else if hit_plateau config w.sink then Worker_pool.Found (Plateau, steps)
         else Worker_pool.Ran steps)
  in
  let winner, pool =
    Worker_pool.hunt ~workers ~max_iterations:config.max_executions
      ?max_seconds:config.max_seconds ~init
      ~on_batch:(fun w -> flush w.sink)
      ~body:execute ()
  in
  let winner = Option.map fst winner in
  let stats =
    {
      executions = pool.Worker_pool.executions;
      elapsed = pool.Worker_pool.elapsed;
      total_steps = pool.Worker_pool.total_steps;
      coverage = Option.map (fun c -> c.acc) collector;
      plateaued = (match winner with Some Plateau -> true | _ -> false);
      timed_out = pool.Worker_pool.timed_out || Atomic.get exec_timed_out;
    }
  in
  (winner, stats, !registered)

let run ?(monitors = no_monitors) config body =
  match drive ~mode:Run ~monitors config body with
  | Some (Bug (kind, result)), stats, _ ->
    Bug_found (finish_report ~monitors config ~kind result body, stats)
  | (Some Plateau | None), stats, _ -> No_bug stats

let explore ?(monitors = no_monitors) config body =
  let _, stats, _ = drive ~mode:Explore ~monitors config body in
  stats

(* Each kind keeps the report from its lowest iteration across workers,
   and kinds come back in that order — the order one worker discovers
   them in. *)
let survey ?(monitors = no_monitors) config body =
  let _, _, workers = drive ~mode:Survey ~monitors config body in
  let merged = Hashtbl.create 8 in
  List.iter
    (fun w ->
      Hashtbl.iter
        (fun key ((report, n, first) as entry) ->
          match Hashtbl.find_opt merged key with
          | Some (report0, n0, first0) ->
            Hashtbl.replace merged key
              (if first < first0 then (report, n + n0, first)
               else (report0, n + n0, first0))
          | None -> Hashtbl.replace merged key entry)
        w.kinds)
    workers;
  Hashtbl.fold (fun _ entry acc -> entry :: acc) merged []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
  |> List.map (fun (report, n, _) -> (report, n))

let ndc = function
  | Bug_found (report, _) -> Some (Trace.length report.Error.trace)
  | No_bug _ -> None

let pp_stats_extra fmt stats =
  (match stats.coverage with
   | Some cov -> Format.fprintf fmt ", %a" Coverage.pp_totals cov
   | None -> ());
  if stats.plateaued then
    Format.fprintf fmt ", stopped on coverage plateau";
  if stats.timed_out then
    Format.fprintf fmt ", stopped at the time budget"

let pp_outcome fmt = function
  | Bug_found (report, stats) ->
    Format.fprintf fmt
      "@[<v>BUG FOUND after %d execution(s), %d total step(s), %.2fs%a:@,%a@]"
      stats.executions stats.total_steps stats.elapsed pp_stats_extra stats
      Error.pp_report report
  | No_bug stats ->
    Format.fprintf fmt "no bug found in %d execution(s) (%d total step(s), %.2fs%a)"
      stats.executions stats.total_steps stats.elapsed pp_stats_extra stats
