(** The systematic testing engine (paper §2).

    Serializes the system-under-test and repeatedly executes it from start
    to completion, each time exploring a potentially different set of
    nondeterministic choices, until it reaches the execution budget or hits
    a safety or liveness violation. A found bug is witnessed by a full
    schedule trace that {!replay} reproduces deterministically.

    With coverage enabled the engine also answers {e what} those executions
    explored: every execution records a {!Coverage} map (machine-state
    visits, delivered event types, transition triples, branch outcomes and
    a schedule fingerprint) which is merged — domain-safely when exploring
    across {!Worker_pool} workers — into a per-run accumulator returned in
    {!stats}.

    {!run}, {!explore} and {!survey} share one exploration loop over
    {!Worker_pool}: every worker runs the same per-execution body (fresh
    strategy and scenario observer, {!Runtime.execute}, hb and coverage
    bookkeeping, strategy feedback, scenario audit), and the entry point
    only decides what a result does. The sequential case is one worker run
    inline in the calling domain. *)

type strategy_spec =
  | Random
  | Pct of { change_points : int }
      (** randomized priority-based scheduler; the paper uses 2 change
          points per execution *)
  | Fuzz of { corpus_cap : int }
      (** coverage-feedback-directed schedule fuzzing ({!Fuzz_strategy}):
          keeps a corpus (bounded by [corpus_cap]) of schedules that found
          new coverage and mutates them (splice / truncate / re-randomize
          suffix). Parallel-safe with an exchange hub
          ([resume.exchange]); without one it keeps its corpus across
          executions and runs sequentially. *)

(** Happens-before instrumentation for an exploration run. *)
type reduction =
  | No_reduction  (** no tracking: the zero-cost default *)
  | Hb_track
      (** record each execution's happens-before relation ({!Hb}) and file
          its canonical partial-order fingerprint into coverage's [hb]
          family — measurement only, the schedule explored is untouched.
          Partial orders land only in coverage, so tracking is skipped in
          runs that collect none (e.g. {!survey}). *)

(** What a run does with coverage. *)
type coverage_mode =
  | Off
      (** collect none, unless the strategy is feedback-directed (fuzz) or
          the run resumes with prior coverage; {!explore} treats [Off] as
          [Collect] *)
  | Collect
      (** record per-execution coverage maps and return the merged map in
          [stats.coverage] *)
  | Plateau of { after : int; family : Coverage.family_kind option }
      (** collect, and stop after [after] consecutive executions that
          uncovered no new coverage point (state, event type, triple or
          branch outcome — raw schedule and hb fingerprints never count,
          see {!Coverage.absorb}); [stats.plateaued] reports the early
          stop. In parallel mode the consecutive count is a cross-worker
          approximation. [family = Some fam] keys the counter on that one
          family: with [Some Hb], for instance, only new canonical partial
          orders reset it — the right bound for long fuzz campaigns, which
          keep trickling coarse novelty long after the interleaving
          structure has been exhausted. *)

(** Where a run starts: {!fresh} for a new run; {!Campaign.resume} builds
    the record that continues a saved campaign. *)
type resume = {
  first_iteration : int;
      (** first global iteration index of the run. A campaign resume sets
          it to the number of executions already spent, so seeded
          strategies — whose execution seeds are a pure function of the
          global iteration — explore {e new} schedules instead of redoing
          the previous invocation's. The budget is still [max_executions]
          executions: the run covers iterations [first_iteration ..
          first_iteration + max_executions - 1]. *)
  prior_coverage : Coverage.t option;
      (** coverage carried over from previous invocations. When set, it
          seeds the run's accumulator before the first execution, so
          novelty feedback and the plateau bound are judged relative to
          everything already explored, and [stats.coverage] returns the
          {e cumulative} map (prior executions included). Implies coverage
          collection. *)
  exchange : Fuzz_strategy.Exchange.t option;
      (** cross-worker novelty hub for the [Fuzz] strategy, and the only
          way to hand it a corpus: a hub built with
          {!Fuzz_strategy.Exchange.of_entries} seeds every worker's corpus
          before its first draw. With a hub, fuzz is parallel-safe: each
          worker owns a private corpus and publishes/pulls coverage-novel
          schedules through the hub off the per-execution path. The caller
          keeps the hub and may {!Fuzz_strategy.Exchange.snapshot} it
          after the run (campaign persistence) or read its push accounting
          with {!Fuzz_strategy.Exchange.stats}. Without a hub, fuzz keeps
          its sequential-fallback behavior under [workers]. Ignored by
          other strategies. *)
}

(** Iteration 0, no prior coverage, no hub. *)
val fresh : resume

type config = {
  strategy : strategy_spec;
  seed : int64;
  max_executions : int;
  max_seconds : float option;
      (** wall-clock budget; the paper's engine stops at "a user-supplied
          bound (e.g. in number of executions or time)" (§2) *)
  max_steps : int;  (** liveness bound: longer executions count as infinite *)
  liveness_grace : int option;
      (** minimum continuous hot span at the bound (default [max_steps/2]) *)
  deadlock_is_bug : bool;
  collect_log_on_bug : bool;
      (** re-execute the buggy schedule to capture a readable trace log *)
  workers : int;
      (** number of OCaml domains exploring the execution budget in
          parallel: [1] (the default) is fully sequential, [0] means one
          worker per available core. Parallel exploration covers exactly
          the same set of schedules as sequential exploration — execution
          seeds derive from the global iteration index, not from the
          worker — so a bug found with any worker count is found with
          every other (only wall-clock time and, when several distinct
          buggy schedules exist, which one is reported first can differ).
          Each worker owns its strategy factory and its hb recorder.
          Fuzz without an exchange hub is not parallel-safe; the engine
          logs a notice and runs one worker. *)
  coverage_mode : coverage_mode;  (** [Off] by default *)
  faults : Fault.spec;
      (** fault-injection spec handed to every execution's runtime
          ({!Fault.none} by default — zero draws, schedules untouched).
          Because every injected fault is an ordinary recorded choice,
          {!replay} of a fault-found trace — which receives the same spec
          through this config — reproduces the identical faults, and the
          shrinker minimizes fault schedules like any other. *)
  reduce : reduction;
      (** happens-before tracking ([No_reduction] by default — strictly
          opt-in: tracking makes zero draws and golden digests are
          byte-identical, pinned by [test/test_golden.ml]). It works at
          every worker count: each worker resets its own recorder per
          execution, and the merged partial orders equal the one-worker
          run's. *)
  clock : Clock.config option;
      (** virtual-time clock config handed to every execution's runtime
          ([None] by default — zero draws, schedules untouched; see
          {!Runtime.config}[.clock]). Clock advances are a deterministic
          function of the schedule, so {!replay} and the shrinker — which
          receive the same config — reproduce identical timestamps. *)
  resume : resume;  (** {!fresh} by default *)
  fuzz_energy : bool;
      (** energy scheduling for the [Fuzz] strategy ([false] by default —
          the v1 uniform corpus pick, draw-identical to before). When on,
          corpus entries that discovered new partial orders or fault
          points get proportionally more mutation attempts, and a new
          canonical partial order alone admits a trace to the corpus
          (see {!Fuzz_strategy.factory}). *)
  fuzz_mutate_faults : bool;
      (** fault-schedule mutation for the [Fuzz] strategy ([false] by
          default). When on, mutants may perturb the recorded fault draws
          (crash instants, delay latencies, drop/dup booleans) while
          keeping the scheduling spine intact. *)
  scenario : Scenario.t option;
      (** scenario constraint ([None] by default — zero draws, zero
          observation, schedules untouched). When set, every execution
          gets a fresh steering {!Scenario.Obs} observer in its runtime
          config: through {!Probe}, it prunes scheduling picks and forces
          fault draws so admitted schedules satisfy the scenario's
          clauses. The base strategy (random, PCT, fuzz) still drives the
          search inside the constraint, and parallel safety is inherited.
          {!replay} and the shrinker observe without steering — forced
          draws are
          ordinary recorded choices, so witnesses replay and shrink as
          always, and a replay journals what the steering run journaled.
          The spec in [faults] must arm what the clauses need: pass it
          through {!Scenario.arm} first. *)
  scenario_audit : (Scenario.Obs.t -> unit) option;
      (** called once per execution with its fully-populated observer
          (journal, wedge count, violations) after the runtime returns —
          the conformance-test hook, also called by {!replay}. In
          parallel runs the callback fires on worker domains and must be
          thread-safe. [None] by default; only meaningful together with
          [scenario]. *)
}

(** Random strategy, seed 0, 10,000 executions, 5,000-step bound, one
    worker, no coverage, no faults. *)
val default_config : config

type stats = {
  executions : int;  (** executions performed (including the buggy one) *)
  elapsed : float;  (** wall-clock seconds *)
  total_steps : int;
  coverage : Coverage.t option;
      (** merged coverage of every execution of the run; [Some] whenever
          the run collected coverage ([coverage_mode] other than [Off],
          prior coverage, or a feedback-directed strategy) *)
  plateaued : bool;  (** run stopped early on the coverage plateau bound *)
  timed_out : bool;
      (** run stopped at [max_seconds] — between executions or {e inside}
          one: the engine threads an absolute deadline into the runtime
          step loop, so a single long execution aborts at the bound
          instead of overshooting it arbitrarily *)
}

type outcome =
  | Bug_found of Error.report * stats
  | No_bug of stats

(** Renders the outcome with self-describing run statistics — executions,
    total steps, elapsed time, and coverage totals when collected. *)
val pp_outcome : Format.formatter -> outcome -> unit

(** [run config ~monitors body] iterates executions of the harness [body]
    (the root machine). [monitors] is called before each execution so every
    run gets fresh monitor state. With [config.workers] other than [1] and
    a parallel-safe strategy, executions fan out across domains
    ({!Worker_pool}); the first bug min-updates an atomic stop bound, and
    the lowest buggy iteration wins at every worker count. The run also
    stops at a coverage plateau and at [max_seconds]; neither stop counts
    an execution that did not run. *)
val run :
  ?monitors:(unit -> Monitor.t list) ->
  config ->
  (Runtime.ctx -> unit) ->
  outcome

(** [explore config ~monitors body] runs the whole execution budget with
    coverage on and {e without} stopping at bugs, so coverage is
    comparable across strategies at a fixed budget (a strategy that trips
    a bug early is not charged fewer executions). Honors [max_seconds]
    and a [Plateau] coverage mode; [stats.coverage] is always [Some]. *)
val explore :
  ?monitors:(unit -> Monitor.t list) ->
  config ->
  (Runtime.ctx -> unit) ->
  stats

(** [runtime_config ?coverage ?hb ?deadline ?scenario config ~collect_log]
    is the {!Runtime.config} of one execution under [config]: the step
    bound, liveness grace, deadlock rule, faults and clock come from
    [config], the observers and the absolute [deadline] from the caller.
    The engine, {!replay} and the shrinker all build theirs here. *)
val runtime_config :
  ?coverage:Coverage.t ->
  ?hb:Hb.t ->
  ?deadline:float ->
  ?scenario:Scenario.Obs.t ->
  config ->
  collect_log:bool ->
  Runtime.config

(** A fresh observer for [config.scenario], one per execution ([None]
    without a scenario); it steers when [steer] is set. *)
val scenario_obs : steer:bool -> config -> Scenario.Obs.t option

(** [replay config ~monitors trace body] re-executes one recorded schedule
    (with [collect_log] on) and returns the raw execution result. *)
val replay :
  ?monitors:(unit -> Monitor.t list) ->
  config ->
  Trace.t ->
  (Runtime.ctx -> unit) ->
  Runtime.exec_result

(** Survey mode: run the whole execution budget without stopping at the
    first bug, deduplicating violations by kind. Returns, in order of first
    discovery, each distinct bug's first report and the number of
    executions that reproduced it — useful for judging how many distinct
    defects a harness exposes and how frequently each one fires. Honors
    [config.max_seconds] (partial results at the deadline) and
    [config.workers] like {!run}. *)
val survey :
  ?monitors:(unit -> Monitor.t list) ->
  config ->
  (Runtime.ctx -> unit) ->
  (Error.report * int) list

(** Number of nondeterministic choices in the buggy execution, the paper's
    #NDC column; [None] if no bug was found. *)
val ndc : outcome -> int option
