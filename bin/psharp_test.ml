(* Command-line systematic-testing runner.

   psharp_test list
   psharp_test hunt BUG [--sch random|pct|rr|dfs|delay|fuzz] [--seed N]
                        [--executions N] [--steps N] [--custom]
                        [--trace-out FILE] [--log] [--workers N]
                        [--coverage-report FILE] [--plateau N]
                        [--plateau-family FAMILY]
                        [--fuzz-energy] [--fuzz-mutate-faults]
                        [--faults drop,dup,delay,crash] [--fault-budget N]
                        [--check-lin auto|on|off] [--campaign DIR]
   psharp_test replay BUG --trace FILE [--custom] [--check-lin MODE]
                        [--history-out FILE]
   psharp_test survey BUG [--executions N]     (all distinct violations)
   psharp_test check BUG [--executions N] [--coverage-report FILE]
                         [--plateau N] [--faults ...] [--fault-budget N]
                                               (fixed variant, expect clean)
   psharp_test explore BUG [--executions N] [--faults ...] [...]
                                               (coverage, no bug expectation) *)

module E = Psharp.Engine
module Error = Psharp.Error
module Campaign = Psharp.Campaign
module Bug_catalog = Catalog.Bug_catalog

open Cmdliner

(* --- shared arguments --------------------------------------------------- *)

let bug_arg =
  let doc = "Bug identifier (see the list command)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BUG" ~doc)

let strategy_arg =
  let doc =
    "Scheduling strategy: random, pct, rr, dfs, delay, or fuzz \
     (coverage-feedback-directed)."
  in
  Arg.(
    value
    & opt string "random"
    & info [ "strategy"; "sch" ] ~docv:"NAME" ~doc)

let seed_arg =
  let doc = "Base random seed." in
  Arg.(value & opt int64 0L & info [ "seed" ] ~doc)

let executions_arg =
  let doc = "Maximum number of executions to explore." in
  Arg.(value & opt int 10_000 & info [ "executions" ] ~doc)

let workers_arg =
  let doc =
    "Explore with $(docv) parallel worker domains (0 = one per core). \
     Parallel runs cover the same schedules as sequential runs; stateful \
     strategies (dfs) fall back to sequential."
  in
  let nonneg =
    let parse s =
      match Arg.conv_parser Arg.int s with
      | Ok n when n >= 0 -> Ok n
      | Ok _ -> Error (`Msg "worker count must be >= 0")
      | Error _ as e -> e
    in
    Arg.conv (parse, Arg.conv_printer Arg.int)
  in
  Arg.(value & opt nonneg 1 & info [ "workers" ] ~docv:"N" ~doc)

let steps_arg =
  let doc = "Step bound per execution (0 = the bug's default)." in
  Arg.(value & opt int 0 & info [ "steps" ] ~doc)

let custom_arg =
  let doc = "Use the bug's custom (pinned-input) test case if it has one." in
  Arg.(value & flag & info [ "custom" ] ~doc)

let trace_out_arg =
  let doc = "Write the buggy schedule trace to $(docv)." in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let trace_in_arg =
  let doc = "Schedule trace to replay." in
  Arg.(required & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let log_arg =
  let doc = "Print the global-order trace log of the buggy execution." in
  Arg.(value & flag & info [ "log" ] ~doc)

let shrink_arg =
  let doc = "Delta-debug the witness trace down to a shorter one." in
  Arg.(value & flag & info [ "shrink" ] ~doc)

let coverage_report_arg =
  let doc =
    "Collect execution coverage (machine states, delivered event types, \
     transition triples, nondet branch outcomes, unique schedules) and \
     write the full JSON report to $(docv); a human-readable summary is \
     printed as well."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "coverage-report" ] ~docv:"FILE" ~doc)

let plateau_arg =
  let doc =
    "Stop after $(docv) consecutive executions that uncover no new \
     coverage point (implies coverage collection). Raw schedule and \
     partial-order fingerprints never count as new points."
  in
  Arg.(value & opt (some int) None & info [ "plateau" ] ~docv:"N" ~doc)

let plateau_family_arg =
  let doc =
    "Key the --plateau counter on a single coverage family (state, event, \
     triple, branch, fault, history, or hb) instead of any-family gain: \
     e.g. --plateau-family hb stops once no new canonical partial orders \
     appear, even while coarser families still trickle in. Requires \
     --plateau."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "plateau-family" ] ~docv:"FAMILY" ~doc)

(* --plateau-family is a refinement of --plateau: alone it would silently
   do nothing, so reject the combination loudly. *)
let parse_plateau_family ~plateau = function
  | None -> Ok None
  | Some s ->
    if plateau = None then Error "--plateau-family requires --plateau"
    else begin
      match Psharp.Coverage.family_kind_of_string s with
      | fam -> Ok (Some fam)
      | exception Failure _ ->
        Error (Printf.sprintf "unknown coverage family %s" s)
    end

let fuzz_energy_arg =
  let doc =
    "With --sch fuzz: energy-scheduled corpus selection — entries that \
     discovered new partial orders or fault points get proportionally \
     more mutation attempts, and a new partial order alone admits a \
     trace to the corpus."
  in
  Arg.(value & flag & info [ "fuzz-energy" ] ~doc)

let fuzz_mutate_faults_arg =
  let doc =
    "With --sch fuzz: allow mutants to perturb recorded fault draws \
     (crash instants, delay latencies, drop/dup booleans) while keeping \
     the scheduling spine intact."
  in
  Arg.(value & flag & info [ "fuzz-mutate-faults" ] ~doc)

let faults_arg =
  let doc =
    "Comma-separated fault kinds to inject (drop, dup, delay, crash), \
     e.g. --faults drop,crash. Defaults to the bug's own fault spec, so \
     fault-only catalog bugs hunt correctly with no flags; pass --faults \
     none to disable even those."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"KINDS" ~doc)

let reduce_arg =
  let doc =
    "Happens-before instrumentation: none (default) or track (record each \
     execution's canonical partial order into coverage without changing \
     the schedule). Works with any --workers count."
  in
  Arg.(value & opt string "none" & info [ "reduce" ] ~docv:"MODE" ~doc)

let parse_reduce = function
  | "none" -> Ok E.No_reduction
  | "track" -> Ok E.Hb_track
  | other ->
    Error
      (Printf.sprintf "unknown reduction mode %s (valid modes: none, track)"
         other)

let fault_budget_arg =
  let doc = "Maximum faults injected per execution (with --faults)." in
  Arg.(value & opt int 1 & info [ "fault-budget" ] ~docv:"N" ~doc)

let campaign_arg =
  let doc =
    "Persist hunt state across invocations in campaign directory $(docv): \
     merged coverage, the fuzz corpus (with --sch fuzz) and one witness \
     per bug kind found. A later hunt with the same $(docv) resumes where \
     the previous one stopped — fresh iterations, novelty judged against \
     everything already explored, corpus carried over — so \
     executions-to-first-bug drops across invocations. The stored seed \
     and harness bind the campaign; a mismatching harness is rejected."
  in
  Arg.(value & opt (some string) None & info [ "campaign" ] ~docv:"DIR" ~doc)

let clock_arg =
  let doc =
    "Virtual-time mode: auto (the bug's own clock config — timeout/retry \
     catalog bugs hunt under simulated time with no flags; default), on \
     (enable with the default horizon), off (disable even for clock \
     bugs), or a positive integer simulation horizon in virtual-time \
     units."
  in
  Arg.(value & opt string "auto" & info [ "clock" ] ~docv:"MODE" ~doc)

(* Mirrors [fault_spec_of]: the bug's own clock config is the default and
   an explicit --clock overrides it. *)
let clock_spec_of entry = function
  | "auto" -> Ok entry.Bug_catalog.clock
  | "on" -> Ok (Some Psharp.Clock.default_config)
  | "off" -> Ok None
  | s -> begin
    match int_of_string_opt s with
    | Some horizon when horizon > 0 -> Ok (Some { Psharp.Clock.max_time = horizon })
    | Some _ -> Error "clock horizon must be positive"
    | None -> Error (Printf.sprintf "unknown clock mode %s" s)
  end

(* The bug's own spec is the default, so `hunt ExtentNodeCrashLosesBinding`
   injects crashes out of the box; an explicit --faults overrides it. *)
let fault_spec_of entry ~faults ~fault_budget =
  match faults with
  | None -> Ok entry.Bug_catalog.faults
  | Some "none" -> Ok Psharp.Fault.none
  | Some kinds -> begin
    match Psharp.Fault.parse kinds with
    | Ok spec -> Ok { spec with Psharp.Fault.budget = fault_budget }
    | Error _ as e -> e
  end

let parse_strategy = function
  | "random" -> Ok E.Random
  | "pct" -> Ok (E.Pct { change_points = 2 })
  | "rr" -> Ok E.Round_robin
  | "dfs" -> Ok (E.Dfs { max_depth = 200; int_cap = 3 })
  | "delay" -> Ok (E.Delay_bounded { delays = 2 })
  | "fuzz" -> Ok (E.Fuzz { corpus_cap = 32 })
  | other -> Error (Printf.sprintf "unknown strategy %s" other)

let config_of ?(workers = 1) ?(coverage = false) ?plateau ?plateau_family
    ?(faults = Psharp.Fault.none) ?(reduce = E.No_reduction) ?clock ?scenario
    ?(fuzz_energy = false) ?(fuzz_mutate_faults = false) entry ~strategy ~seed
    ~executions ~steps ~log =
  {
    E.default_config with
    strategy;
    seed;
    max_executions = executions;
    max_steps = (if steps > 0 then steps else entry.Bug_catalog.max_steps);
    collect_log_on_bug = log;
    workers;
    collect_coverage = coverage;
    coverage_plateau = plateau;
    plateau_family = Option.join plateau_family;
    faults;
    reduce;
    clock = Option.join clock;
    scenario;
    fuzz_energy;
    fuzz_mutate_faults;
  }

let scenario_arg =
  let doc =
    "Constrain the run with catalog scenario $(docv) (see `scenario \
     list'): the base strategy keeps driving the search, but the scenario \
     wrapper prunes scheduling picks and forces fault draws so every \
     admitted schedule satisfies the scenario's clauses. The bug's fault \
     spec is armed with whatever the clauses need."
  in
  Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"NAME" ~doc)

(* Resolve --scenario and arm the fault spec with what its clauses need
   (kinds, budget, max latency). Arming happens exactly once, here. *)
let scenario_spec_of name fault_spec =
  match name with
  | None -> Ok (None, fault_spec)
  | Some n -> begin
    match Catalog.Scenario_catalog.find n with
    | exception Invalid_argument msg -> Error msg
    | e ->
      let s = e.Catalog.Scenario_catalog.scenario in
      Ok (Some s, Psharp.Scenario.arm s fault_spec)
  end

let harness_of entry ~custom =
  if custom then
    match entry.Bug_catalog.custom_harness with
    | Some h -> Ok h
    | None ->
      Error (Printf.sprintf "%s has no custom test case" entry.Bug_catalog.name)
  else Ok entry.Bug_catalog.harness

let check_lin_arg =
  let doc =
    "Which oracle judges the run: auto (the bug's own — shardkv harnesses \
     are judged by the generic linearizability checker natively, the rest \
     by their legacy asserts; default), on (the generic checker over the \
     recorded client history, for harnesses that record one), or off (the \
     legacy oracle only; rejected for harnesses that have no other)."
  in
  Arg.(value & opt string "auto" & info [ "check-lin" ] ~docv:"MODE" ~doc)

(* Mirrors [clock_spec_of]: the entry's own oracle is the default and an
   explicit --check-lin overrides it. Draw-identical harnesses, so a mode
   switch never changes the schedule space being searched. *)
let lin_harness_of entry ~custom ~check_lin ~fixed =
  let default () =
    if fixed then Ok entry.Bug_catalog.fixed_harness
    else harness_of entry ~custom
  in
  match check_lin with
  | "auto" -> default ()
  | "on" ->
    if custom then Error "--check-lin on is not available with --custom"
    else begin
      match entry.Bug_catalog.lin with
      | Some l ->
        Ok
          ((if fixed then l.Bug_catalog.lin_fixed
            else l.Bug_catalog.lin_harness)
             ~history_out:None)
      | None ->
        Error
          (Printf.sprintf
             "%s records no client history; the generic checker does not \
              apply"
             entry.Bug_catalog.name)
    end
  | "off" -> begin
    match entry.Bug_catalog.lin with
    | Some l when l.Bug_catalog.lin_default ->
      Error
        (Printf.sprintf
           "%s is judged only by the generic linearizability oracle; \
            --check-lin off is not available"
           entry.Bug_catalog.name)
    | _ -> default ()
  end
  | other -> Error (Printf.sprintf "unknown check-lin mode %s" other)

(* --- list --------------------------------------------------------------- *)

let list_cmd =
  let run () =
    Printf.printf "%-3s %-40s %-8s %-7s %s\n" "CS" "Bug" "Kind" "Table2"
      "Custom case";
    List.iter
      (fun e ->
        Printf.printf "%-3s %-40s %-8s %-7s %s\n"
          (Bug_catalog.case_study_to_string e.Bug_catalog.case_study)
          e.Bug_catalog.name
          (match e.Bug_catalog.kind with
           | `Safety -> "safety"
           | `Liveness -> "liveness")
          (if e.Bug_catalog.in_table2 then "yes" else "no")
          (if e.Bug_catalog.custom_harness <> None then "yes" else "no"))
      Bug_catalog.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the re-introducible bugs.")
    Term.(const run $ const ())

(* --- hunt --------------------------------------------------------------- *)

let emit_coverage_report ~path (stats : E.stats) =
  match stats.E.coverage with
  | None -> ()
  | Some cov ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc (Psharp.Coverage.to_json cov));
    Format.printf "%a@." Psharp.Coverage.pp_table cov;
    Format.printf "coverage report written to %s@." path

(* Load (or initialize) the campaign bound to [dir], strictly: a
   corrupted campaign or one belonging to a different harness is an
   error, not a silent fresh start. *)
let campaign_state_of ~dir ~bug ~seed =
  match Campaign.load_opt ~dir with
  | exception Failure msg -> Error msg
  | None -> Ok (Campaign.create ~harness:bug ~seed)
  | Some c ->
    if c.Campaign.harness <> bug then
      Error
        (Printf.sprintf "campaign in %s hunts %s, not %s" dir
           c.Campaign.harness bug)
    else begin
      if c.Campaign.seed <> seed then
        Format.printf "campaign seed %Ld overrides --seed %Ld@."
          c.Campaign.seed seed;
      Format.printf "resuming %a@." Campaign.pp c;
      Ok c
    end

let hunt bug strategy seed executions steps custom trace_out log shrink
    workers coverage_report plateau plateau_family faults fault_budget reduce
    clock check_lin campaign fuzz_energy fuzz_mutate_faults scenario_name =
  match
    Result.bind (parse_strategy strategy) (fun s ->
        Result.bind (parse_reduce reduce) (fun r ->
            Result.map
              (fun pf -> (s, r, pf))
              (parse_plateau_family ~plateau plateau_family)))
  with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok (strategy, reduce, plateau_family) -> begin
    match Bug_catalog.find bug with
    | exception Invalid_argument msg ->
      prerr_endline msg;
      2
    | entry -> begin
      match
        Result.bind (fault_spec_of entry ~faults ~fault_budget) (fun spec ->
            Result.bind (scenario_spec_of scenario_name spec)
              (fun (scen, spec) ->
                Result.bind (clock_spec_of entry clock) (fun ck ->
                    Result.bind
                      (lin_harness_of entry ~custom ~check_lin ~fixed:false)
                      (fun h ->
                        match campaign with
                        | None -> Ok (scen, spec, ck, h, None)
                        | Some dir ->
                          Result.map
                            (fun c -> (scen, spec, ck, h, Some (dir, c)))
                            (campaign_state_of ~dir ~bug ~seed)))))
      with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok (scenario, fault_spec, clock_spec, harness, campaign_state) -> begin
        let config =
          config_of ~workers
            ~coverage:(coverage_report <> None)
            ?plateau ~plateau_family ~faults:fault_spec ~reduce
            ~clock:clock_spec ?scenario ~fuzz_energy ~fuzz_mutate_faults entry
            ~strategy ~seed ~executions ~steps ~log
        in
        (* With --sch fuzz the campaign's corpus flows through an Exchange
           hub: the run's novel schedules collect there and the snapshot
           below becomes the corpus of the next invocation. *)
        let exchange =
          match (campaign_state, strategy) with
          | Some (_, c), E.Fuzz _ ->
            Some (Psharp.Fuzz_strategy.Exchange.of_entries c.Campaign.corpus)
          | _ -> None
        in
        let config =
          match campaign_state with
          | None -> config
          | Some (_, c) ->
            {
              config with
              E.seed = c.Campaign.seed;
              start_iteration = c.Campaign.executions;
              prior_coverage = Some c.Campaign.coverage;
              collect_coverage = true;
              (* the corpus reaches the workers through the hub when one
                 exists; passing it twice would double-fill each corpus *)
              fuzz_initial =
                (if Option.is_none exchange then c.Campaign.corpus else []);
              fuzz_exchange = exchange;
            }
        in
        let finish_campaign ?witness (stats : E.stats) =
          match campaign_state with
          | None -> ()
          | Some (dir, c) ->
            let coverage =
              match stats.E.coverage with
              | Some cov -> cov
              | None -> c.Campaign.coverage
            in
            let corpus =
              match exchange with
              | Some e ->
                (* no silent caps: say what the hub accepted and dropped *)
                let st = Psharp.Fuzz_strategy.Exchange.stats e in
                Format.printf
                  "exchange: %d corpus entr%s pooled, %d duplicate push(es) \
                   dropped, %d push(es) dropped at cap@."
                  st.Psharp.Fuzz_strategy.Exchange.accepted
                  (if st.Psharp.Fuzz_strategy.Exchange.accepted = 1 then "y"
                   else "ies")
                  st.Psharp.Fuzz_strategy.Exchange.dropped_dup
                  st.Psharp.Fuzz_strategy.Exchange.dropped_cap;
                Psharp.Fuzz_strategy.Exchange.snapshot e
              | None -> c.Campaign.corpus
            in
            let c =
              Campaign.advance c ~executions:stats.E.executions ~coverage
                ~corpus
            in
            let c =
              match witness with
              | Some (kind, trace) -> Campaign.record_witness c ~kind ~trace
              | None -> c
            in
            Campaign.save ~dir c;
            Format.printf "%a@.campaign saved to %s@." Campaign.pp c dir
        in
        let finish_coverage stats =
          match coverage_report with
          | Some path -> emit_coverage_report ~path stats
          | None -> ()
        in
        match E.run ~monitors:entry.Bug_catalog.monitors config harness with
        | E.Bug_found (first_report, stats) ->
          let report =
            if shrink then begin
              Format.printf "shrinking the %d-choice witness...@."
                (Psharp.Trace.length first_report.Error.trace);
              Psharp.Shrinker.shrink ~monitors:entry.Bug_catalog.monitors
                config first_report harness
            end
            else first_report
          in
          Format.printf "%a@." Error.pp_report report;
          Format.printf
            "found after %d execution(s) in %.2fs (%d total steps)@."
            stats.E.executions stats.E.elapsed stats.E.total_steps;
          if stats.E.elapsed > 0. then
            Format.printf "throughput: %.0f executions/sec, %.0f steps/sec@."
              (float_of_int stats.E.executions /. stats.E.elapsed)
              (float_of_int stats.E.total_steps /. stats.E.elapsed);
          if log then
            List.iter (fun line -> Format.printf "%s@." line) report.Error.log;
          (match trace_out with
           | Some path ->
             Psharp.Trace.save ~path report.Error.trace;
             Format.printf "trace written to %s@." path
           | None -> ());
          finish_coverage stats;
          finish_campaign
            ~witness:(Error.kind_to_string report.Error.kind, report.Error.trace)
            stats;
          0
        | E.No_bug stats ->
          Format.printf "no bug found in %d execution(s) (%.2fs%s%s%s)@."
            stats.E.executions stats.E.elapsed
            (if stats.E.search_exhausted then ", search exhausted" else "")
            (if stats.E.plateaued then ", coverage plateau" else "")
            (if stats.E.timed_out then ", stopped at the time budget" else "");
          if stats.E.elapsed > 0. then
            Format.printf "throughput: %.0f executions/sec, %.0f steps/sec@."
              (float_of_int stats.E.executions /. stats.E.elapsed)
              (float_of_int stats.E.total_steps /. stats.E.elapsed);
          finish_coverage stats;
          finish_campaign stats;
          1
      end
    end
  end

let hunt_cmd =
  Cmd.v
    (Cmd.info "hunt" ~doc:"Systematically search for a catalog bug.")
    Term.(
      const hunt $ bug_arg $ strategy_arg $ seed_arg $ executions_arg
      $ steps_arg $ custom_arg $ trace_out_arg $ log_arg $ shrink_arg
      $ workers_arg $ coverage_report_arg $ plateau_arg $ plateau_family_arg
      $ faults_arg $ fault_budget_arg $ reduce_arg $ clock_arg $ check_lin_arg
      $ campaign_arg $ fuzz_energy_arg $ fuzz_mutate_faults_arg
      $ scenario_arg)

(* --- replay ------------------------------------------------------------- *)

let replay bug trace_file custom log check_lin history_out scenario_name =
  match Bug_catalog.find bug with
  | exception Invalid_argument msg ->
    prerr_endline msg;
    2
  | entry -> begin
    let resolved =
      match history_out with
      | None -> lin_harness_of entry ~custom ~check_lin ~fixed:false
      | Some path ->
        (* dumping the recorded history requires the history-recording
           harness; for entries whose default oracle doesn't record one,
           the trace must have been hunted under --check-lin on, and the
           replay must say so too (the two oracles draw identically, but
           an abort at a mid-run legacy assert would leave no history
           file to write) *)
        if custom then Error "--history-out is not available with --custom"
        else begin
          match entry.Bug_catalog.lin with
          | Some l when l.Bug_catalog.lin_default || check_lin = "on" ->
            Ok (l.Bug_catalog.lin_harness ~history_out:(Some path))
          | Some _ ->
            Error
              (Printf.sprintf
                 "--history-out needs --check-lin on for %s (its default \
                  oracle does not record histories)"
                 entry.Bug_catalog.name)
          | None ->
            Error
              (Printf.sprintf "%s records no client history"
                 entry.Bug_catalog.name)
        end
    in
    match resolved with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok harness ->
      match scenario_spec_of scenario_name entry.Bug_catalog.faults with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok (scenario, fault_spec) ->
      let trace = Psharp.Trace.load ~path:trace_file in
      (* The bug's own fault spec and clock config: a fault-found trace
         replays its recorded injection draws only under the spec that
         produced them, and a clock-found trace only under the same time
         model. A scenario-found trace additionally needs the same
         --scenario, so the fault driver takes its steered branch and the
         armed spec matches the recorded draw vocabulary. *)
      let config =
        config_of ~faults:fault_spec ~clock:entry.Bug_catalog.clock ?scenario
          entry ~strategy:E.Random ~seed:0L ~executions:1 ~steps:0 ~log:true
      in
      let result =
        E.replay ~monitors:entry.Bug_catalog.monitors config trace harness
      in
      let note_history () =
        match history_out with
        | Some path when Sys.file_exists path ->
          Format.printf "history written to %s@." path
        | Some path ->
          Format.printf
            "no history written to %s (the replay aborted before the \
             workload completed)@."
            path
        | None -> ()
      in
      (match result.Psharp.Runtime.bug with
       | Some kind ->
         Format.printf "replay reproduced: %s at step %d@."
           (Error.kind_to_string kind) result.Psharp.Runtime.bug_step;
         if log then
           List.iter
             (fun line -> Format.printf "%s@." line)
             result.Psharp.Runtime.log;
         note_history ();
         0
       | None ->
         Format.printf "replay completed without a bug (stale trace?)@.";
         note_history ();
         1)
  end

let history_out_arg =
  let doc =
    "Write the client operation history recorded during the replay to \
     $(docv) (harnesses with a generic-checker oracle only; implies the \
     history-recording harness)."
  in
  Arg.(
    value & opt (some string) None & info [ "history-out" ] ~docv:"FILE" ~doc)

let replay_cmd =
  Cmd.v
    (Cmd.info "replay" ~doc:"Replay a recorded buggy schedule.")
    Term.(
      const replay $ bug_arg $ trace_in_arg $ custom_arg $ log_arg
      $ check_lin_arg $ history_out_arg $ scenario_arg)

(* --- survey --------------------------------------------------------------- *)

let survey bug strategy seed executions custom workers faults fault_budget
    clock =
  match parse_strategy strategy with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok strategy -> begin
    match Bug_catalog.find bug with
    | exception Invalid_argument msg ->
      prerr_endline msg;
      2
    | entry -> begin
      match
        Result.bind (fault_spec_of entry ~faults ~fault_budget) (fun spec ->
            Result.bind (clock_spec_of entry clock) (fun ck ->
                Result.map (fun h -> (spec, ck, h)) (harness_of entry ~custom)))
      with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok (fault_spec, clock_spec, harness) ->
        let config =
          config_of ~workers ~faults:fault_spec ~clock:clock_spec entry
            ~strategy ~seed ~executions ~steps:0 ~log:false
        in
        let found =
          E.survey ~monitors:entry.Bug_catalog.monitors config harness
        in
        if found = [] then begin
          Format.printf "no violations in %d executions@." executions;
          1
        end
        else begin
          Format.printf "%d distinct violation(s) over %d executions:@."
            (List.length found) executions;
          List.iter
            (fun (report, n) ->
              Format.printf "  %6d x  %s (first witness: %d choices)@." n
                (Error.kind_to_string report.Error.kind)
                (Psharp.Trace.length report.Error.trace))
            found;
          0
        end
    end
  end

let survey_cmd =
  Cmd.v
    (Cmd.info "survey"
       ~doc:
         "Explore the whole execution budget and report every distinct \
          violation with its frequency.")
    Term.(
      const survey $ bug_arg $ strategy_arg $ seed_arg $ executions_arg
      $ custom_arg $ workers_arg $ faults_arg $ fault_budget_arg $ clock_arg)

(* --- check (fixed variant) ---------------------------------------------- *)

let check bug seed executions coverage_report plateau faults fault_budget
    reduce clock check_lin =
  match parse_reduce reduce with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok reduce -> begin
    match Bug_catalog.find bug with
  | exception Invalid_argument msg ->
    prerr_endline msg;
    2
  | entry -> begin
    match
      Result.bind (fault_spec_of entry ~faults ~fault_budget) (fun spec ->
          Result.bind (clock_spec_of entry clock) (fun ck ->
              Result.map
                (fun h -> (spec, ck, h))
                (lin_harness_of entry ~custom:false ~check_lin ~fixed:true)))
    with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok (fault_spec, clock_spec, fixed_harness) -> begin
    let config =
      config_of
        ~coverage:(coverage_report <> None)
        ?plateau ~faults:fault_spec ~reduce ~clock:clock_spec entry
        ~strategy:E.Random ~seed ~executions ~steps:0 ~log:true
    in
    let finish_coverage stats =
      match coverage_report with
      | Some path -> emit_coverage_report ~path stats
      | None -> ()
    in
    match E.run ~monitors:entry.Bug_catalog.monitors config fixed_harness with
    | E.No_bug stats ->
      Format.printf "fixed variant clean over %d execution(s) (%.2fs%s)@."
        stats.E.executions stats.E.elapsed
        (if stats.E.plateaued then ", coverage plateau" else "");
      finish_coverage stats;
      0
    | E.Bug_found (report, stats) ->
      Format.printf "UNEXPECTED bug in fixed variant after %d execution(s):@.%a@."
        stats.E.executions Error.pp_report report;
      List.iter (fun line -> Format.printf "%s@." line) report.Error.log;
      finish_coverage stats;
      1
    end
  end
  end

let check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the bug's fixed variant and expect no violations.")
    Term.(
      const check $ bug_arg $ seed_arg $ executions_arg $ coverage_report_arg
      $ plateau_arg $ faults_arg $ fault_budget_arg $ reduce_arg $ clock_arg
      $ check_lin_arg)

(* --- explore (coverage, no bug expectation) ----------------------------- *)

let explore bug strategy seed executions steps custom workers coverage_report
    plateau plateau_family faults fault_budget reduce clock fuzz_energy
    fuzz_mutate_faults =
  match
    Result.bind (parse_strategy strategy) (fun s ->
        Result.bind (parse_reduce reduce) (fun r ->
            Result.map
              (fun pf -> (s, r, pf))
              (parse_plateau_family ~plateau plateau_family)))
  with
  | Error msg ->
    prerr_endline msg;
    2
  | Ok (strategy, reduce, plateau_family) -> begin
    match Bug_catalog.find bug with
    | exception Invalid_argument msg ->
      prerr_endline msg;
      2
    | entry -> begin
      match
        Result.bind (fault_spec_of entry ~faults ~fault_budget) (fun spec ->
            Result.bind (clock_spec_of entry clock) (fun ck ->
                Result.map (fun h -> (spec, ck, h)) (harness_of entry ~custom)))
      with
      | Error msg ->
        prerr_endline msg;
        2
      | Ok (fault_spec, clock_spec, harness) ->
        let config =
          config_of ~workers ~coverage:true ?plateau ~plateau_family
            ~faults:fault_spec ~reduce ~clock:clock_spec ~fuzz_energy
            ~fuzz_mutate_faults entry ~strategy ~seed ~executions ~steps
            ~log:false
        in
        let stats = E.explore ~monitors:entry.Bug_catalog.monitors config harness in
        (match stats.E.coverage with
         | Some cov ->
           Format.printf "%a@." Psharp.Coverage.pp_table cov;
           (match coverage_report with
            | Some path ->
              let oc = open_out path in
              Fun.protect
                ~finally:(fun () -> close_out oc)
                (fun () -> output_string oc (Psharp.Coverage.to_json cov));
              Format.printf "coverage report written to %s@." path
            | None -> ())
         | None -> ());
        Format.printf "explored %d execution(s) in %.2fs (%d total steps%s%s)@."
          stats.E.executions stats.E.elapsed stats.E.total_steps
          (if stats.E.plateaued then ", coverage plateau" else "")
          (if stats.E.timed_out then ", stopped at the time budget" else "");
        0
    end
  end

let explore_cmd =
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Run the whole execution budget with coverage on, without \
          stopping at bugs, and report the coverage reached.")
    Term.(
      const explore $ bug_arg $ strategy_arg $ seed_arg $ executions_arg
      $ steps_arg $ custom_arg $ workers_arg $ coverage_report_arg
      $ plateau_arg $ plateau_family_arg $ faults_arg $ fault_budget_arg
      $ reduce_arg $ clock_arg $ fuzz_energy_arg $ fuzz_mutate_faults_arg)

(* --- scenario (list / describe / run) ------------------------------------ *)

module Scenario_catalog = Catalog.Scenario_catalog

let scenario_list () =
  Printf.printf "%-20s %-55s %s\n" "Scenario" "Summary" "Targets";
  List.iter
    (fun e ->
      Printf.printf "%-20s %-55s %s\n" e.Scenario_catalog.name
        e.Scenario_catalog.summary
        (String.concat "," e.Scenario_catalog.targets))
    Scenario_catalog.all;
  0

let scenario_describe name =
  match Scenario_catalog.find name with
  | exception Invalid_argument msg ->
    prerr_endline msg;
    2
  | e ->
    Printf.printf "%s — %s\n\n%stargets: %s\n" e.Scenario_catalog.name
      e.Scenario_catalog.summary e.Scenario_catalog.text
      (String.concat ", " e.Scenario_catalog.targets);
    0

(* Delegates to [hunt] with the scenario pinned; the target defaults to
   the entry's first (most characteristic) catalog bug. *)
let scenario_run name bug strategy seed executions steps trace_out log shrink
    workers faults fault_budget clock =
  match Scenario_catalog.find name with
  | exception Invalid_argument msg ->
    prerr_endline msg;
    2
  | e ->
    let bug =
      match bug with
      | Some b -> b
      | None -> List.hd e.Scenario_catalog.targets
    in
    hunt bug strategy seed executions steps false trace_out log shrink workers
      None None None faults fault_budget "none" clock "auto" None false false
      (Some name)

let scenario_pos_arg =
  let doc = "Scenario name (see `scenario list')." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO" ~doc)

let scenario_bug_arg =
  let doc = "Target bug (defaults to the scenario's first target)." in
  Arg.(value & pos 1 (some string) None & info [] ~docv:"BUG" ~doc)

let scenario_cmd =
  let list_c =
    Cmd.v
      (Cmd.info "list" ~doc:"List the scenario catalog.")
      Term.(const scenario_list $ const ())
  in
  let describe_c =
    Cmd.v
      (Cmd.info "describe"
         ~doc:"Print a scenario's canonical text and target bugs.")
      Term.(const scenario_describe $ scenario_pos_arg)
  in
  let run_c =
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Hunt a target bug under a scenario (equivalent to `hunt BUG \
            --scenario SCENARIO').")
      Term.(
        const scenario_run $ scenario_pos_arg $ scenario_bug_arg $ strategy_arg
        $ seed_arg $ executions_arg $ steps_arg $ trace_out_arg $ log_arg
        $ shrink_arg $ workers_arg $ faults_arg $ fault_budget_arg $ clock_arg)
  in
  Cmd.group
    (Cmd.info "scenario" ~doc:"List, describe and run catalog scenarios.")
    [ list_c; describe_c; run_c ]

let () =
  let info =
    Cmd.info "psharp_test" ~version:"1.0"
      ~doc:
        "Systematic concurrency testing of the distributed storage case \
         studies (FAST 2016 reproduction)."
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            list_cmd;
            hunt_cmd;
            replay_cmd;
            survey_cmd;
            check_cmd;
            explore_cmd;
            scenario_cmd;
          ]))
