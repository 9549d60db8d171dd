type strategy_spec =
  | Random
  | Pct of { change_points : int }
  | Dfs of { max_depth : int; int_cap : int }
  | Round_robin
  | Delay_bounded of { delays : int }
  | Replay_trace of Trace.t
  | Fuzz of { corpus_cap : int }

type reduction = No_reduction | Hb_track | Sleep_sets

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
  collect_coverage : bool;
  coverage_plateau : int option;
  plateau_family : Coverage.family_kind option;
  faults : Fault.spec;
  reduce : reduction;
  clock : Clock.config option;
  start_iteration : int;
  prior_coverage : Coverage.t option;
  fuzz_initial : Fuzz_strategy.corpus_entry list;
  fuzz_exchange : Fuzz_strategy.Exchange.t option;
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
    collect_coverage = false;
    coverage_plateau = None;
    plateau_family = None;
    faults = Fault.none;
    reduce = No_reduction;
    clock = None;
    start_iteration = 0;
    prior_coverage = None;
    fuzz_initial = [];
    fuzz_exchange = None;
    fuzz_energy = false;
    fuzz_mutate_faults = false;
    scenario = None;
    scenario_audit = None;
  }

type stats = {
  executions : int;
  elapsed : float;
  total_steps : int;
  search_exhausted : bool;
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
  | Dfs { max_depth; int_cap } -> Dfs_strategy.factory ~max_depth ~int_cap ()
  | Round_robin -> Rr_strategy.factory ()
  | Delay_bounded { delays } ->
    Delay_strategy.factory ~seed:config.seed ~delays
      ~max_steps:config.max_steps ()
  | Replay_trace t -> Replay_strategy.factory t
  | Fuzz { corpus_cap } ->
    Fuzz_strategy.factory ~seed:config.seed ~corpus_cap
      ~initial:config.fuzz_initial ?exchange:config.fuzz_exchange
      ~energy:config.fuzz_energy ~mutate_faults:config.fuzz_mutate_faults ()

(* [deadline] is the run's absolute wall-clock bound (started +
   max_seconds); the runtime checks it inside the step loop, so a single
   long execution cannot overshoot the budget (replay never gets one — a
   recorded schedule must always re-execute in full). *)
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
   latches, pending draw markers) for each execution, created from the
   immutable compiled scenario. [Scenario.Obs.create] validates that
   [config.faults] arms what the clauses need — callers go through
   {!Scenario.arm} before building the config, so a raise here is a
   programming error at the call site, not a user input error. *)
let scenario_obs config =
  Option.map
    (fun s -> Scenario.Obs.create s ~faults:config.faults)
    config.scenario

(* DFS enumerates its own tree and replay retraces recorded choices;
   forcing their draws would change what those strategies mean (and for
   replay the forced draws are already in the trace). The observer is
   still installed — deliveries/crashes land in the journal so conformance
   can be checked on replayed traces — but the strategy is not wrapped. *)
let scenario_steers config =
  match (config.scenario, config.strategy) with
  | None, _ -> false
  | Some _, (Dfs _ | Replay_trace _) -> false
  | Some _, _ -> true

let normalize_scenario config =
  (match (config.scenario, config.strategy) with
   | Some _, (Dfs _ | Replay_trace _) ->
     Printf.eprintf
       "[engine] strategy %s retraces its own choices; the scenario is \
        observed but does not steer\n\
        %!"
       (factory_of config).Strategy.factory_name
   | _ -> ());
  config

let scenario_wrap ~steer sobs strategy =
  match sobs with
  | Some o when steer -> Scenario.wrap ~obs:o strategy
  | _ -> strategy

(* Invoked once per execution, after the runtime returns, with the
   execution's fully-populated observer (journal, wedge count, violation
   list). In parallel runs the callback fires on worker domains and must
   be thread-safe. *)
let audit_scenario config sobs =
  match (config.scenario_audit, sobs) with
  | Some f, Some o -> f o
  | _ -> ()

(* --- Happens-before reduction ------------------------------------------ *)

(* The run's happens-before recorder: one per sequential run, reset
   before each execution (the runtime config carries it). *)
let recorder_of config =
  match config.reduce with
  | No_reduction -> None
  | Hb_track | Sleep_sets -> Some (Hb.create ())

(* Per-execution instrumentation: the emptied recorder and, under
   [Sleep_sets], the sleep-set wrapper around the base strategy. *)
let instrument config hb strategy =
  match hb with
  | None -> strategy
  | Some h ->
    Hb.reset h;
    (match config.reduce with
     | Sleep_sets -> Sleep_strategy.wrap ~hb:h strategy
     | No_reduction | Hb_track -> strategy)

(* DFS enumerates its own tree and replay retraces exact recorded
   choices; pruning their enabled sets would change what they mean. Keep
   the recorder (partial orders still land in coverage) but drop the
   pruning. *)
let normalize_reduction config =
  match (config.reduce, config.strategy) with
  | Sleep_sets, (Dfs _ | Replay_trace _) ->
    Printf.eprintf
      "[engine] strategy %s is incompatible with sleep-set pruning; \
       tracking happens-before without pruning\n\
       %!"
      (factory_of config).Strategy.factory_name;
    { config with reduce = Hb_track }
  | _ -> config

let no_monitors () = []

let replay ?(monitors = no_monitors) config trace body =
  let strategy =
    match (Replay_strategy.factory trace).fresh ~iteration:0 with
    | Some s -> s
    | None -> assert false
  in
  let sobs = scenario_obs config in
  let result =
    Runtime.execute
      (runtime_config ?scenario:sobs config ~collect_log:true)
      strategy ~monitors:(monitors ()) ~name:"Harness" body
  in
  audit_scenario config sobs;
  result

(* Assemble the report of a buggy execution, optionally re-executing the
   schedule with logging on to capture a readable trace log. *)
let finish_report ~monitors config ~kind (result : Runtime.exec_result) body =
  let log =
    if config.collect_log_on_bug then
      (replay ~monitors config result.Runtime.choices body).Runtime.log
    else result.Runtime.log
  in
  {
    Error.kind;
    step = result.Runtime.bug_step;
    trace = result.Runtime.choices;
    log;
  }

(* --- Per-run coverage collection --------------------------------------- *)

(* Coverage is collected when explicitly requested, when a plateau bound
   needs it, when the strategy wants feedback (fuzz), or when a campaign
   resume carries prior coverage (which seeds the accumulator so novelty
   and the plateau are judged relative to history). *)
let wants_coverage config (factory : Strategy.factory) =
  config.collect_coverage
  || config.coverage_plateau <> None
  || config.prior_coverage <> None
  || factory.Strategy.feedback <> None

let seeded_acc config =
  let acc = Coverage.create () in
  (match config.prior_coverage with
   | Some prior -> ignore (Coverage.absorb ~into:acc prior)
   | None -> ());
  acc

(* Did this absorb count as plateau gain? Unkeyed, any core-family novelty
   does (the historical rule; schedule and hb fingerprints never count —
   see coverage.mli). Keyed on a family, only that family's novelty resets
   the counter, so e.g. [--plateau-family hb] stops a long fuzz campaign
   once it stops finding new partial orders even while coarser families
   still trickle in. *)
let plateau_gain family novelty =
  match family with
  | None -> Coverage.novel_core novelty
  | Some fam -> Coverage.novel_in novelty fam

(* The sequential accumulator: the run owns it exclusively, so merging an
   execution's map is a plain call — no lock anywhere on the path. *)
type collector = {
  acc : Coverage.t;
  gain_family : Coverage.family_kind option;
  mutable no_gain : int;  (* consecutive executions with no new point *)
}

let collector_of config (factory : Strategy.factory) =
  if wants_coverage config factory then
    Some
      {
        acc = seeded_acc config;
        gain_family = config.plateau_family;
        no_gain = 0;
      }
  else None

(* The runtime records each execution straight into the accumulator;
   [mark] is taken right before it starts. *)
let mark_of collector = Option.map (fun c -> Coverage.mark c.acc) collector

(* One execution's worth of coverage bookkeeping: file the canonical
   partial-order fingerprint (when hb is tracked) and the schedule
   fingerprint, read the per-family novelty off the accumulator's growth
   since [mark], update the plateau counter and feed the strategy back. *)
let observe collector (factory : Strategy.factory) hb mark
    (result : Runtime.exec_result) =
  match (collector, mark) with
  | Some c, Some mark ->
    (match hb with
     | Some h -> Coverage.note_hb c.acc ~fingerprint:(Hb.canonical_fingerprint h)
     | None -> ());
    Coverage.note_execution c.acc
      ~fingerprint:(Coverage.fingerprint result.Runtime.choices);
    let novelty = Coverage.novelty_since c.acc mark in
    if plateau_gain c.gain_family novelty then c.no_gain <- 0
    else c.no_gain <- c.no_gain + 1;
    (match factory.Strategy.feedback with
     | Some f -> f ~trace:result.Runtime.choices ~novelty
     | None -> ())
  | _ -> ()

let hit_plateau config collector =
  match (config.coverage_plateau, collector) with
  | Some n, Some c -> c.no_gain >= n
  | _ -> false

let coverage_of collector = Option.map (fun c -> c.acc) collector

(* --- Parallel coverage: per-worker shards, batch-boundary merge -------- *)

(* The parallel accumulator. Workers never touch it per execution: each
   worker folds its executions into a private delta map and merges the
   delta here only at Worker_pool batch boundaries (and once at exit), so
   the per-execution hot path is mutex-free by construction. [absorb] is
   commutative and associative, so the merged map is identical to the
   sequential accumulator at the same budget regardless of merge order. *)
type shared_collector = {
  s_acc : Coverage.t;
  s_mu : Mutex.t;
  s_family : Coverage.family_kind option;
  s_no_gain : int Atomic.t;
      (* executions with no new point, sampled at merge epochs: a merge
         that brings novelty resets it, one that brings none adds the
         delta's execution count. Coarser than the sequential counter
         (batch granularity) but the same user-visible semantics. *)
}

let shared_collector_of config factory =
  if wants_coverage config factory then
    Some
      {
        s_acc = seeded_acc config;
        s_mu = Mutex.create ();
        s_family = config.plateau_family;
        s_no_gain = Atomic.make 0;
      }
  else None

(* Per-worker observation state, allocated in the worker's own domain.
   [view] is a worker-cumulative map used only to answer per-execution
   novelty for feedback strategies (fuzz) without consulting the shared
   accumulator — a local approximation of the sequential novelty signal. *)
type worker_obs = {
  w_factory : Strategy.factory;
  w_shared : shared_collector option;
  mutable w_delta : Coverage.t;
  mutable w_pending : int;  (* executions folded into [w_delta] *)
  w_view : Coverage.t option;
}

let worker_obs_of config shared ~worker:_ =
  let factory = factory_of config in
  {
    w_factory = factory;
    w_shared = shared;
    w_delta = Coverage.create ();
    w_pending = 0;
    w_view =
      (if factory.Strategy.feedback <> None then Some (Coverage.create ())
       else None);
  }

let obs_exec_cov obs =
  if obs.w_shared <> None || obs.w_view <> None then Some (Coverage.create ())
  else None

(* Per-execution bookkeeping, all worker-local: no locks, no shared
   writes. *)
let observe_local obs (result : Runtime.exec_result) exec_cov =
  match exec_cov with
  | None -> ()
  | Some exec ->
    Coverage.note_execution exec
      ~fingerprint:(Coverage.fingerprint result.Runtime.choices);
    (match (obs.w_view, obs.w_factory.Strategy.feedback) with
     | Some view, Some f ->
       let novelty = Coverage.absorb_tagged ~into:view exec in
       f ~trace:result.Runtime.choices ~novelty
     | _ -> ());
    (match obs.w_shared with
     | Some _ ->
       ignore (Coverage.absorb ~into:obs.w_delta exec);
       obs.w_pending <- obs.w_pending + 1
     | None -> ())

(* Batch-boundary merge: the only place worker coverage meets the shared
   accumulator (Worker_pool invokes it between batches and at exit). *)
let flush_obs obs =
  match obs.w_shared with
  | Some s when obs.w_pending > 0 ->
    let delta = obs.w_delta and pending = obs.w_pending in
    obs.w_delta <- Coverage.create ();
    obs.w_pending <- 0;
    let novelty =
      Mutex.protect s.s_mu (fun () -> Coverage.absorb_tagged ~into:s.s_acc delta)
    in
    if plateau_gain s.s_family novelty then Atomic.set s.s_no_gain 0
    else ignore (Atomic.fetch_and_add s.s_no_gain pending)
  | _ -> ()

let shared_hit_plateau config shared =
  match (config.coverage_plateau, shared) with
  | Some n, Some s -> Atomic.get s.s_no_gain >= n
  | _ -> false

let shared_coverage_of shared = Option.map (fun s -> s.s_acc) shared

(* ----------------------------------------------------------------------- *)

let run_sequential ~monitors config body =
  let factory = factory_of config in
  let collector = collector_of config factory in
  let hb = recorder_of config in
  let steer = scenario_steers config in
  let started = Unix.gettimeofday () in
  let deadline = Option.map (fun b -> started +. b) config.max_seconds in
  let total_steps = ref 0 in
  let out_of_time () =
    match deadline with
    | Some d -> Unix.gettimeofday () >= d
    | None -> false
  in
  let stats_at ?(search_exhausted = false) ?(plateaued = false)
      ?(timed_out = false) i =
    {
      executions = i;
      elapsed = Unix.gettimeofday () -. started;
      total_steps = !total_steps;
      search_exhausted;
      coverage = coverage_of collector;
      plateaued;
      timed_out;
    }
  in
  let rec iterate i =
    if i >= config.max_executions then No_bug (stats_at i)
    else if out_of_time () then No_bug (stats_at ~timed_out:true i)
    else
      match factory.Strategy.fresh ~iteration:(config.start_iteration + i) with
      | None -> No_bug (stats_at ~search_exhausted:true i)
      | Some strategy ->
        let strategy = instrument config hb strategy in
        let sobs = scenario_obs config in
        let strategy = scenario_wrap ~steer sobs strategy in
        let mark = mark_of collector in
        let result =
          Runtime.execute
            (runtime_config ?coverage:(coverage_of collector) ?hb ?deadline
               ?scenario:sobs config ~collect_log:false)
            strategy ~monitors:(monitors ()) ~name:"Harness" body
        in
        total_steps := !total_steps + result.Runtime.steps;
        observe collector factory hb mark result;
        audit_scenario config sobs;
        (match result.Runtime.bug with
         | Some kind ->
           let report = finish_report ~monitors config ~kind result body in
           Bug_found (report, stats_at (i + 1))
         | None ->
           if result.Runtime.timed_out then
             No_bug (stats_at ~timed_out:true (i + 1))
           else if hit_plateau config collector then
             No_bug (stats_at ~plateaued:true (i + 1))
           else iterate (i + 1))
  in
  iterate 0

(* Parallel exploration: each worker domain owns a private factory built
   from the same config and explores the global iteration indices assigned
   to it by the pool, so the set of schedules explored is exactly the
   sequential set for every worker count (seeds derive from the global
   iteration index, not from the worker). Each worker folds coverage into
   a private shard and merges it into the shared accumulator only at batch
   boundaries; merge order varies with scheduling but the merged map does
   not (absorb is commutative). The per-execution hot path takes no lock
   and writes no shared atomic. *)
let run_parallel ~monitors ~workers config body =
  let shared = shared_collector_of config (factory_of config) in
  let steer = scenario_steers config in
  let deadline =
    Option.map (fun b -> Unix.gettimeofday () +. b) config.max_seconds
  in
  let exec_timed_out = Atomic.make false in
  let winner, pool_stats =
    Worker_pool.hunt ~workers ~max_iterations:config.max_executions
      ?max_seconds:config.max_seconds
      ~init:(worker_obs_of config shared)
      ~on_batch:flush_obs
      ~body:(fun obs ~iteration ->
        match
          obs.w_factory.Strategy.fresh
            ~iteration:(config.start_iteration + iteration)
        with
        | None -> (None, 0)
        | Some strategy ->
          let sobs = scenario_obs config in
          let strategy = scenario_wrap ~steer sobs strategy in
          let exec_cov = obs_exec_cov obs in
          let result =
            Runtime.execute
              (runtime_config ?coverage:exec_cov ?deadline ?scenario:sobs
                 config ~collect_log:false)
              strategy ~monitors:(monitors ()) ~name:"Harness" body
          in
          observe_local obs result exec_cov;
          audit_scenario config sobs;
          if result.Runtime.timed_out then Atomic.set exec_timed_out true;
          let payload =
            match result.Runtime.bug with
            | Some kind -> Some (`Bug (kind, result))
            | None ->
              if shared_hit_plateau config shared then Some `Plateau else None
          in
          (payload, result.Runtime.steps))
      ()
  in
  let stats ~plateaued =
    {
      executions = pool_stats.Worker_pool.executions;
      elapsed = pool_stats.Worker_pool.elapsed;
      total_steps = pool_stats.Worker_pool.total_steps;
      search_exhausted = false;
      coverage = shared_coverage_of shared;
      plateaued;
      timed_out =
        pool_stats.Worker_pool.timed_out || Atomic.get exec_timed_out;
    }
  in
  match winner with
  | None -> No_bug (stats ~plateaued:false)
  | Some (`Plateau, _iteration) -> No_bug (stats ~plateaued:true)
  | Some (`Bug (kind, result), _iteration) ->
    Bug_found (finish_report ~monitors config ~kind result body, stats ~plateaued:false)

(* Parallel mode needs a parallel-safe strategy (a stateless factory each
   worker can instantiate privately); otherwise fall back with a notice. *)
let parallel_plan config =
  let workers = Worker_pool.resolve config.workers in
  if workers <= 1 || config.max_executions <= 1 then `Sequential
  else if config.reduce <> No_reduction then begin
    (* the recorder and sleep sets are per-execution, but the reduction's
       value lies in the sequentially-shared coverage of partial orders;
       like DFS, fall back with a notice *)
    Printf.eprintf
      "[engine] happens-before reduction is sequential-only; ignoring \
       workers=%d and exploring sequentially\n\
       %!"
      workers;
    `Sequential
  end
  else begin
    let factory = factory_of config in
    if factory.Strategy.parallel_safe then `Parallel workers
    else begin
      Printf.eprintf
        "[engine] strategy %s keeps state across executions; ignoring \
         workers=%d and exploring sequentially\n\
         %!"
        factory.Strategy.factory_name workers;
      `Sequential
    end
  end

let run ?(monitors = no_monitors) config body =
  let config = normalize_scenario (normalize_reduction config) in
  match parallel_plan config with
  | `Sequential -> run_sequential ~monitors config body
  | `Parallel workers -> run_parallel ~monitors ~workers config body

(* --- Explore: full-budget coverage measurement ------------------------- *)

(* Like [run] but never stops at a bug: the whole budget executes (subject
   to max_seconds / plateau), which makes coverage comparable across
   strategies — a strategy that trips a bug early would otherwise be
   charged fewer executions than its rivals. *)
let explore_sequential ~monitors config body =
  let factory = factory_of config in
  let collector = collector_of config factory in
  let hb = recorder_of config in
  let steer = scenario_steers config in
  let started = Unix.gettimeofday () in
  let deadline = Option.map (fun b -> started +. b) config.max_seconds in
  let total_steps = ref 0 in
  let out_of_time () =
    match deadline with
    | Some d -> Unix.gettimeofday () >= d
    | None -> false
  in
  let stats_at ?(search_exhausted = false) ?(plateaued = false)
      ?(timed_out = false) i =
    {
      executions = i;
      elapsed = Unix.gettimeofday () -. started;
      total_steps = !total_steps;
      search_exhausted;
      coverage = coverage_of collector;
      plateaued;
      timed_out;
    }
  in
  let rec iterate i =
    if i >= config.max_executions then stats_at i
    else if out_of_time () then stats_at ~timed_out:true i
    else
      match factory.Strategy.fresh ~iteration:(config.start_iteration + i) with
      | None -> stats_at ~search_exhausted:true i
      | Some strategy ->
        let strategy = instrument config hb strategy in
        let sobs = scenario_obs config in
        let strategy = scenario_wrap ~steer sobs strategy in
        let mark = mark_of collector in
        let result =
          Runtime.execute
            (runtime_config ?coverage:(coverage_of collector) ?hb ?deadline
               ?scenario:sobs config ~collect_log:false)
            strategy ~monitors:(monitors ()) ~name:"Harness" body
        in
        total_steps := !total_steps + result.Runtime.steps;
        observe collector factory hb mark result;
        audit_scenario config sobs;
        if result.Runtime.timed_out then stats_at ~timed_out:true (i + 1)
        else if hit_plateau config collector then
          stats_at ~plateaued:true (i + 1)
        else iterate (i + 1)
  in
  iterate 0

let explore_parallel ~monitors ~workers config body =
  let shared = shared_collector_of config (factory_of config) in
  let steer = scenario_steers config in
  let deadline =
    Option.map (fun b -> Unix.gettimeofday () +. b) config.max_seconds
  in
  let exec_timed_out = Atomic.make false in
  let winner, pool_stats =
    Worker_pool.hunt ~workers ~max_iterations:config.max_executions
      ?max_seconds:config.max_seconds
      ~init:(worker_obs_of config shared)
      ~on_batch:flush_obs
      ~body:(fun obs ~iteration ->
        match
          obs.w_factory.Strategy.fresh
            ~iteration:(config.start_iteration + iteration)
        with
        | None -> (None, 0)
        | Some strategy ->
          let sobs = scenario_obs config in
          let strategy = scenario_wrap ~steer sobs strategy in
          let exec_cov = obs_exec_cov obs in
          let result =
            Runtime.execute
              (runtime_config ?coverage:exec_cov ?deadline ?scenario:sobs
                 config ~collect_log:false)
              strategy ~monitors:(monitors ()) ~name:"Harness" body
          in
          observe_local obs result exec_cov;
          audit_scenario config sobs;
          if result.Runtime.timed_out then Atomic.set exec_timed_out true;
          ( (if shared_hit_plateau config shared then Some () else None),
            result.Runtime.steps ))
      ()
  in
  {
    executions = pool_stats.Worker_pool.executions;
    elapsed = pool_stats.Worker_pool.elapsed;
    total_steps = pool_stats.Worker_pool.total_steps;
    search_exhausted = false;
    coverage = shared_coverage_of shared;
    plateaued = winner <> None;
    timed_out = pool_stats.Worker_pool.timed_out || Atomic.get exec_timed_out;
  }

let explore ?(monitors = no_monitors) config body =
  let config =
    normalize_scenario
      (normalize_reduction { config with collect_coverage = true })
  in
  match parallel_plan config with
  | `Sequential -> explore_sequential ~monitors config body
  | `Parallel workers -> explore_parallel ~monitors ~workers config body

(* Survey mode: keep exploring after bugs are found, deduplicating by the
   rendered bug kind; returns each distinct bug's first report and how many
   executions reproduced it. *)
let report_of_result kind (result : Runtime.exec_result) =
  {
    Error.kind;
    step = result.Runtime.bug_step;
    trace = result.Runtime.choices;
    log = result.Runtime.log;
  }

let survey_sequential ~monitors config body =
  let factory = factory_of config in
  let hb = recorder_of config in
  let steer = scenario_steers config in
  let started = Unix.gettimeofday () in
  let deadline = Option.map (fun b -> started +. b) config.max_seconds in
  let out_of_time () =
    match deadline with
    | Some d -> Unix.gettimeofday () >= d
    | None -> false
  in
  let found : (string, Error.report * int) Hashtbl.t = Hashtbl.create 8 in
  let order : string list ref = ref [] in
  let rec iterate i =
    (* The wall-clock budget applies here too: stop at the deadline and
       return the violations collected so far. *)
    if i >= config.max_executions || out_of_time () then ()
    else
      match factory.Strategy.fresh ~iteration:(config.start_iteration + i) with
      | None -> ()
      | Some strategy ->
        let strategy = instrument config hb strategy in
        let sobs = scenario_obs config in
        let strategy = scenario_wrap ~steer sobs strategy in
        let result =
          Runtime.execute
            (runtime_config ?hb ?deadline ?scenario:sobs config
               ~collect_log:false)
            strategy ~monitors:(monitors ()) ~name:"Harness" body
        in
        audit_scenario config sobs;
        (match result.Runtime.bug with
         | None -> ()
         | Some kind ->
           let key = Error.kind_to_string kind in
           (match Hashtbl.find_opt found key with
            | Some (report, n) -> Hashtbl.replace found key (report, n + 1)
            | None ->
              Hashtbl.replace found key (report_of_result kind result, 1);
              order := key :: !order));
        iterate (i + 1)
  in
  iterate 0;
  List.rev_map (fun key -> Hashtbl.find found key) !order

(* Workers dedupe into a shared lock-protected table; each distinct kind
   keeps the report from the lowest global iteration, and kinds are
   returned ordered by that iteration — the same order the sequential
   survey discovers them in. *)
let survey_parallel ~monitors ~workers config body =
  let mu = Mutex.create () in
  let steer = scenario_steers config in
  let found : (string, Error.report * int * int) Hashtbl.t =
    Hashtbl.create 8
  in
  let deadline =
    Option.map (fun b -> Unix.gettimeofday () +. b) config.max_seconds
  in
  let (_ : (unit * int) list), (_ : Worker_pool.stats) =
    Worker_pool.sweep ~workers ~max_iterations:config.max_executions
      ?max_seconds:config.max_seconds
      ~init:(fun ~worker:_ -> factory_of config)
      ~body:(fun factory ~iteration ->
        match
          factory.Strategy.fresh ~iteration:(config.start_iteration + iteration)
        with
        | None -> (None, 0)
        | Some strategy ->
          let sobs = scenario_obs config in
          let strategy = scenario_wrap ~steer sobs strategy in
          let result =
            Runtime.execute
              (runtime_config ?deadline ?scenario:sobs config
                 ~collect_log:false)
              strategy ~monitors:(monitors ()) ~name:"Harness" body
          in
          audit_scenario config sobs;
          (match result.Runtime.bug with
           | None -> ()
           | Some kind ->
             let key = Error.kind_to_string kind in
             Mutex.protect mu (fun () ->
                 match Hashtbl.find_opt found key with
                 | Some (report, n, first) ->
                   if iteration < first then
                     Hashtbl.replace found key
                       (report_of_result kind result, n + 1, iteration)
                   else Hashtbl.replace found key (report, n + 1, first)
                 | None ->
                   Hashtbl.replace found key
                     (report_of_result kind result, 1, iteration)));
          (None, result.Runtime.steps))
      ()
  in
  Hashtbl.fold (fun _ entry acc -> entry :: acc) found []
  |> List.sort (fun (_, _, a) (_, _, b) -> compare a b)
  |> List.map (fun (report, n, _) -> (report, n))

let survey ?(monitors = no_monitors) config body =
  let config = normalize_scenario (normalize_reduction config) in
  match parallel_plan config with
  | `Sequential -> survey_sequential ~monitors config body
  | `Parallel workers -> survey_parallel ~monitors ~workers config body

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
    Format.fprintf fmt "no bug found in %d execution(s) (%d total step(s), %.2fs%s%a)"
      stats.executions stats.total_steps stats.elapsed
      (if stats.search_exhausted then ", search space exhausted" else "")
      pp_stats_extra stats
