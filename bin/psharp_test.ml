(* Command-line systematic-testing runner. `psharp_test --help` lists the
   commands; `psharp_test COMMAND --help` lists each command's flags. *)

module E = Psharp.Engine
module Error = Psharp.Error
module Campaign = Psharp.Campaign
module Exchange = Psharp.Fuzz_strategy.Exchange
module Bug_catalog = Catalog.Bug_catalog
module Scenario_catalog = Catalog.Scenario_catalog

open Cmdliner

(* --- typed arguments ---------------------------------------------------- *)

let find_bug name =
  match Bug_catalog.find name with
  | entry -> Ok entry
  | exception Invalid_argument _ ->
    Error (Printf.sprintf "unknown bug %s (see the list command)" name)

let bug_conv =
  Arg.conv'
    (find_bug, fun ppf e -> Format.pp_print_string ppf e.Bug_catalog.name)

let scenario_conv =
  Arg.conv'
    ( (fun name ->
        match Scenario_catalog.find name with
        | e -> Ok e
        | exception Invalid_argument msg -> Error msg),
      fun ppf e -> Format.pp_print_string ppf e.Scenario_catalog.name )

let nonneg what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 0 -> Ok n
    | Some _ -> Error (what ^ " must be >= 0")
    | None -> Error (Printf.sprintf "invalid %s %s" what s)
  in
  Arg.conv' (parse, Format.pp_print_int)

let strategy_conv =
  Arg.enum
    [
      ("random", E.Random);
      ("pct", E.Pct { change_points = 2 });
      ("dfs", E.Dfs { max_depth = 200; int_cap = 3 });
      ("fuzz", E.Fuzz { corpus_cap = 32 });
    ]

let reduce_conv = Arg.enum [ ("none", E.No_reduction); ("track", E.Hb_track) ]
let check_lin_conv = Arg.enum [ ("auto", `Auto); ("on", `On); ("off", `Off) ]

(* [`Auto] is the bug's own clock config; [`Set c] overrides it. *)
let clock_conv =
  let parse = function
    | "auto" -> Ok `Auto
    | "on" -> Ok (`Set (Some Psharp.Clock.default_config))
    | "off" -> Ok (`Set None)
    | s -> (
      match int_of_string_opt s with
      | Some max_time when max_time > 0 ->
        Ok (`Set (Some { Psharp.Clock.max_time }))
      | Some _ -> Error "clock horizon must be positive"
      | None -> Error (Printf.sprintf "unknown clock mode %s" s))
  in
  let print ppf = function
    | `Auto -> Format.pp_print_string ppf "auto"
    | `Set None -> Format.pp_print_string ppf "off"
    | `Set (Some c) -> Format.pp_print_int ppf c.Psharp.Clock.max_time
  in
  Arg.conv' (parse, print)

let faults_conv =
  Arg.conv'
    ( Psharp.Fault.parse,
      fun ppf s -> Format.pp_print_string ppf (Psharp.Fault.to_string s) )

let family_conv =
  Arg.enum
    (List.map
       (fun k -> (Psharp.Coverage.family_kind_to_string k, k))
       Psharp.Coverage.all_family_kinds)

(* --- flags -------------------------------------------------------------- *)

let bug_arg =
  let doc = "Bug identifier (see the list command)." in
  Arg.(required & pos 0 (some bug_conv) None & info [] ~docv:"BUG" ~doc)

let strategy_arg =
  let doc =
    "Scheduling strategy: random, pct, dfs, or fuzz \
     (coverage-feedback-directed)."
  in
  Arg.(
    value
    & opt strategy_conv E.Random
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
  Arg.(
    value & opt (nonneg "worker count") 1 & info [ "workers" ] ~docv:"N" ~doc)

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
     --plateau; hb also requires --reduce track."
  in
  Arg.(
    value
    & opt (some family_conv) None
    & info [ "plateau-family" ] ~docv:"FAMILY" ~doc)

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
     e.g. --faults drop,crash, with an optional budget suffix as in \
     --faults 'drop,crash(budget=2)'. Defaults to the bug's own fault \
     spec, so fault-only catalog bugs hunt correctly with no flags; pass \
     --faults none to disable even those."
  in
  Arg.(
    value & opt (some faults_conv) None & info [ "faults" ] ~docv:"KINDS" ~doc)

let fault_budget_arg =
  let doc =
    "Maximum faults injected per execution. Overrides the budget of the \
     fault spec in force (the bug's own or --faults); without it, that \
     spec keeps its own budget."
  in
  Arg.(
    value
    & opt (some (nonneg "fault budget")) None
    & info [ "fault-budget" ] ~docv:"N" ~doc)

let reduce_arg =
  let doc =
    "Happens-before instrumentation: none (default) or track (record each \
     execution's canonical partial order into coverage without changing \
     the schedule). Works with any --workers count. Needs a run that \
     collects coverage (--coverage-report, --plateau, --sch fuzz, \
     --campaign, or explore)."
  in
  Arg.(
    value
    & opt reduce_conv E.No_reduction
    & info [ "reduce" ] ~docv:"MODE" ~doc)

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
  Arg.(value & opt clock_conv `Auto & info [ "clock" ] ~docv:"MODE" ~doc)

let scenario_arg =
  let doc =
    "Constrain the run with catalog scenario $(docv) (see `scenario \
     list'): the base strategy keeps driving the search, but the scenario \
     prunes scheduling picks and forces fault draws so every \
     admitted schedule satisfies the scenario's clauses. The bug's fault \
     spec is armed with whatever the clauses need."
  in
  Arg.(
    value
    & opt (some scenario_conv) None
    & info [ "scenario" ] ~docv:"NAME" ~doc)

let check_lin_arg =
  let doc =
    "Which oracle judges the run: auto (the bug's own — shardkv harnesses \
     are judged by the generic linearizability checker natively, the rest \
     by their legacy asserts; default), on (the generic checker over the \
     recorded client history, for harnesses that record one), or off (the \
     legacy oracle only; rejected for harnesses that have no other)."
  in
  Arg.(
    value & opt check_lin_conv `Auto & info [ "check-lin" ] ~docv:"MODE" ~doc)

let history_out_arg =
  let doc =
    "Write the client operation history recorded during the replay to \
     $(docv) (harnesses with a generic-checker oracle only; implies the \
     history-recording harness)."
  in
  Arg.(
    value & opt (some string) None & info [ "history-out" ] ~docv:"FILE" ~doc)

(* --- one resolution for every run subcommand ---------------------------- *)

type run = {
  entry : Bug_catalog.entry;
  harness : Psharp.Runtime.ctx -> unit;
  config : E.config;
  coverage_report : string option;
  campaign : (string * Campaign.t) option;
  history_out : string option;
}

(* The harness the oracle flags select. The entry's own oracle is the
   default and an explicit --check-lin overrides it; the harnesses draw
   identically, so a mode switch never changes the schedule space. Dumping
   a history (replay --history-out) needs the history-recording harness:
   a trace hunted under the legacy oracle must be replayed under
   --check-lin on too, or a mid-run legacy assert would abort before the
   history is complete. *)
let harness_of entry ~fixed ~custom ~check_lin ~history_out =
  let name = entry.Bug_catalog.name in
  let default () =
    if fixed then Ok entry.Bug_catalog.fixed_harness
    else if custom then
      Option.to_result entry.Bug_catalog.custom_harness
        ~none:(Printf.sprintf "%s has no custom test case" name)
    else Ok entry.Bug_catalog.harness
  in
  match (history_out, check_lin, entry.Bug_catalog.lin) with
  | Some _, _, _ when custom ->
    Error "--history-out is not available with --custom"
  | Some path, _, Some l when l.Bug_catalog.lin_default || check_lin = `On ->
    Ok (l.Bug_catalog.lin_harness ~history_out:(Some path))
  | Some _, _, Some _ ->
    Error
      (Printf.sprintf
         "--history-out needs --check-lin on for %s (its default oracle does \
          not record histories)"
         name)
  | Some _, _, None ->
    Error (Printf.sprintf "%s records no client history" name)
  | None, `Auto, _ -> default ()
  | None, `On, _ when custom ->
    Error "--check-lin on is not available with --custom"
  | None, `On, Some l ->
    Ok
      ((if fixed then l.Bug_catalog.lin_fixed else l.Bug_catalog.lin_harness)
         ~history_out:None)
  | None, `On, None ->
    Error
      (Printf.sprintf
         "%s records no client history; the generic checker does not apply"
         name)
  | None, `Off, Some l when l.Bug_catalog.lin_default ->
    Error
      (Printf.sprintf
         "%s is judged only by the generic linearizability oracle; \
          --check-lin off is not available"
         name)
  | None, `Off, _ -> default ()

(* Load (or initialize) the campaign bound to [dir], strictly: a
   corrupted campaign or one belonging to a different harness is an
   error, not a silent fresh start. *)
let campaign_state_of ~dir ~bug ~seed =
  match Campaign.load_opt ~dir with
  | exception Failure msg -> Error msg
  | None -> Ok (Campaign.create ~harness:bug ~seed)
  | Some c when c.Campaign.harness <> bug ->
    Error
      (Printf.sprintf "campaign in %s hunts %s, not %s" dir c.Campaign.harness
         bug)
  | Some c ->
    if c.Campaign.seed <> seed then
      Format.printf "campaign seed %Ld overrides --seed %Ld@." c.Campaign.seed
        seed;
    Format.printf "resuming %a@." Campaign.pp c;
    Ok c

type flag =
  | Strategy
  | Seed
  | Executions
  | Steps
  | Custom
  | Log
  | Workers
  | Coverage
  | Plateau
  | Plateau_family
  | Faults
  | Reduce
  | Clock
  | Check_lin
  | Campaign
  | Fuzz_v2
  | Scenario
  | History_out

(* The run of a subcommand that takes [flags]; a flag it does not take
   keeps its default. [target] is the bug and scenario to run: by default
   the BUG argument and --scenario. [collects] says the subcommand
   collects coverage whatever its flags (explore). The bug's config is the
   default and explicit flags override it. The fault spec in force is the
   bug's own or --faults, with its budget replaced by an explicit
   --fault-budget; a scenario then arms what its clauses need (kinds,
   budget, max latency), exactly once, here. *)
let run_term ?(fixed = false) ?(collects = false) ?target flags =
  let on flag arg default =
    if List.mem flag flags then arg else Term.const default
  in
  let target =
    match target with
    | Some t -> t
    | None ->
      Term.(
        const (fun e s -> Ok (e, s)) $ bug_arg $ on Scenario scenario_arg None)
  in
  let open Term.Syntax in
  let+ target = target
  and+ strategy = on Strategy strategy_arg E.Random
  and+ seed = on Seed seed_arg 0L
  and+ executions = on Executions executions_arg 10_000
  and+ steps = on Steps steps_arg 0
  and+ custom = on Custom custom_arg false
  and+ log = on Log log_arg false
  and+ workers = on Workers workers_arg 1
  and+ coverage_report = on Coverage coverage_report_arg None
  and+ plateau = on Plateau plateau_arg None
  and+ plateau_family = on Plateau_family plateau_family_arg None
  and+ faults = on Faults faults_arg None
  and+ fault_budget = on Faults fault_budget_arg None
  and+ reduce = on Reduce reduce_arg E.No_reduction
  and+ clock = on Clock clock_arg `Auto
  and+ check_lin = on Check_lin check_lin_arg `Auto
  and+ campaign = on Campaign campaign_arg None
  and+ fuzz_energy = on Fuzz_v2 fuzz_energy_arg false
  and+ fuzz_mutate_faults = on Fuzz_v2 fuzz_mutate_faults_arg false
  and+ history_out = on History_out history_out_arg None in
  let ( let* ) = Result.bind in
  let* entry, scenario = target in
  let coverage_mode =
    match plateau with
    | Some after -> E.Plateau { after; family = plateau_family }
    | None when collects || coverage_report <> None -> E.Collect
    | None -> E.Off
  in
  let fuzz = match strategy with E.Fuzz _ -> true | _ -> false in
  let* () =
    match (plateau, plateau_family, reduce) with
    | None, Some _, _ -> Error "--plateau-family requires --plateau"
    | _, Some Psharp.Coverage.Hb, E.No_reduction ->
      (* without partial orders every execution is a run without gain *)
      Error "--plateau-family hb requires --reduce track"
    | _, _, E.Hb_track
      when coverage_mode = E.Off && (not fuzz) && campaign = None ->
      Error
        "--reduce track records partial orders into coverage; it needs \
         --coverage-report, --plateau, --sch fuzz or --campaign"
    | _ -> Ok ()
  in
  let* harness = harness_of entry ~fixed ~custom ~check_lin ~history_out in
  let* campaign =
    match campaign with
    | None -> Ok None
    | Some dir ->
      Result.map
        (fun c -> Some (dir, c))
        (campaign_state_of ~dir ~bug:entry.Bug_catalog.name ~seed)
  in
  let base = Bug_catalog.config entry in
  let faults = Option.value faults ~default:base.E.faults in
  let faults =
    match fault_budget with
    | Some budget -> { faults with Psharp.Fault.budget }
    | None -> faults
  in
  let scenario = Option.map (fun e -> e.Scenario_catalog.scenario) scenario in
  let faults =
    Option.fold scenario ~none:faults ~some:(fun s ->
        Psharp.Scenario.arm s faults)
  in
  let config =
    {
      base with
      E.strategy;
      seed;
      max_executions = executions;
      max_steps = (if steps > 0 then steps else base.E.max_steps);
      collect_log_on_bug = log;
      workers;
      coverage_mode;
      faults;
      reduce;
      clock = (match clock with `Auto -> base.E.clock | `Set c -> c);
      scenario;
      fuzz_energy;
      fuzz_mutate_faults;
    }
  in
  Ok
    {
      entry;
      harness;
      config =
        Option.fold campaign ~none:config ~some:(fun (_, c) ->
            Campaign.resume c config);
      coverage_report;
      campaign;
      history_out;
    }

(* A run subcommand: resolve its flags, print the fault spec and clock the
   run arms, and hand the run to [body]. The one exit for usage errors the
   argument converters cannot see (flag combinations, harness choice,
   campaign state). *)
let run_cmd name ~doc ?fixed ?collects ?target flags body =
  let go resolved body =
    match resolved with
    | Error msg ->
      prerr_endline msg;
      2
    | Ok run ->
      Format.printf "faults: %s, clock: %s@."
        (Psharp.Fault.to_string run.config.E.faults)
        (match run.config.E.clock with
         | None -> "off"
         | Some c -> Printf.sprintf "horizon %d" c.Psharp.Clock.max_time);
      body run
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const go $ run_term ?fixed ?collects ?target flags $ body)

(* --- run subcommands ---------------------------------------------------- *)

let print_throughput (stats : E.stats) =
  if stats.E.elapsed > 0. then
    Format.printf "throughput: %.0f executions/sec, %.0f steps/sec@."
      (float_of_int stats.E.executions /. stats.E.elapsed)
      (float_of_int stats.E.total_steps /. stats.E.elapsed)

(* The coverage summary, and the JSON report when --coverage-report asks
   for one; [table] prints the summary even without a report. *)
let report_coverage ?(table = false) run (stats : E.stats) =
  match stats.E.coverage with
  | Some cov when table || run.coverage_report <> None ->
    Format.printf "%a@." Psharp.Coverage.pp_table cov;
    Option.iter
      (fun path ->
        Out_channel.with_open_text path (fun oc ->
            output_string oc (Psharp.Coverage.to_json cov));
        Format.printf "coverage report written to %s@." path)
      run.coverage_report
  | _ -> ()

let finish_campaign ?witness run (stats : E.stats) =
  match run.campaign with
  | None -> ()
  | Some (dir, c) ->
    let coverage = Option.value stats.E.coverage ~default:c.Campaign.coverage in
    let corpus =
      match run.config.E.resume.exchange with
      | Some e ->
        (* no silent caps: say what the hub accepted and dropped *)
        let st = Exchange.stats e in
        Format.printf
          "exchange: %d corpus entr%s pooled, %d duplicate push(es) dropped, \
           %d push(es) dropped at cap@."
          st.Exchange.accepted
          (if st.Exchange.accepted = 1 then "y" else "ies")
          st.Exchange.dropped_dup st.Exchange.dropped_cap;
        Exchange.snapshot e
      | None -> c.Campaign.corpus
    in
    let c =
      Campaign.advance c ~executions:stats.E.executions ~coverage ~corpus
    in
    let c =
      match witness with
      | Some (kind, trace) -> Campaign.record_witness c ~kind ~trace
      | None -> c
    in
    Campaign.save ~dir c;
    Format.printf "%a@.campaign saved to %s@." Campaign.pp c dir

let hunt trace_out shrink run =
  let monitors = run.entry.Bug_catalog.monitors in
  match E.run ~monitors run.config run.harness with
  | E.Bug_found (first, stats) ->
    let report =
      if shrink then begin
        Format.printf "shrinking the %d-choice witness...@."
          (Psharp.Trace.length first.Error.trace);
        Psharp.Shrinker.shrink ~monitors run.config first run.harness
      end
      else first
    in
    Format.printf "%a@." Error.pp_report report;
    Format.printf "found after %d execution(s) in %.2fs (%d total steps)@."
      stats.E.executions stats.E.elapsed stats.E.total_steps;
    print_throughput stats;
    if run.config.E.collect_log_on_bug then
      List.iter (Format.printf "%s@.") report.Error.log;
    Option.iter
      (fun path ->
        Psharp.Trace.save ~path report.Error.trace;
        Format.printf "trace written to %s@." path)
      trace_out;
    report_coverage run stats;
    finish_campaign
      ~witness:(Error.kind_to_string report.Error.kind, report.Error.trace)
      run stats;
    0
  | E.No_bug stats ->
    Format.printf "no bug found in %d execution(s) (%.2fs%s%s%s)@."
      stats.E.executions stats.E.elapsed
      (if stats.E.search_exhausted then ", search exhausted" else "")
      (if stats.E.plateaued then ", coverage plateau" else "")
      (if stats.E.timed_out then ", stopped at the time budget" else "");
    print_throughput stats;
    report_coverage run stats;
    finish_campaign run stats;
    1

(* The run's fault spec, clock and scenario are the ones the trace was
   found under: a fault-found trace replays its recorded injection draws
   only under the spec that produced them, a clock-found trace only under
   the same time model, and a scenario-found trace only under the same
   --scenario. *)
let replay trace_file run =
  let trace = Psharp.Trace.load ~path:trace_file in
  let result =
    E.replay ~monitors:run.entry.Bug_catalog.monitors run.config trace
      run.harness
  in
  let note_history () =
    match run.history_out with
    | Some path when Sys.file_exists path ->
      Format.printf "history written to %s@." path
    | Some path ->
      Format.printf
        "no history written to %s (the replay aborted before the workload \
         completed)@."
        path
    | None -> ()
  in
  match result.Psharp.Runtime.bug with
  | Some kind ->
    Format.printf "replay reproduced: %s at step %d@."
      (Error.kind_to_string kind) result.Psharp.Runtime.bug_step;
    if run.config.E.collect_log_on_bug then
      List.iter (Format.printf "%s@.") result.Psharp.Runtime.log;
    note_history ();
    0
  | None ->
    Format.printf "replay completed without a bug (stale trace?)@.";
    note_history ();
    1

let survey run =
  let executions = run.config.E.max_executions in
  let monitors = run.entry.Bug_catalog.monitors in
  match E.survey ~monitors run.config run.harness with
  | [] ->
    Format.printf "no violations in %d executions@." executions;
    1
  | found ->
    Format.printf "%d distinct violation(s) over %d executions:@."
      (List.length found) executions;
    List.iter
      (fun (report, n) ->
        Format.printf "  %6d x  %s (first witness: %d choices)@." n
          (Error.kind_to_string report.Error.kind)
          (Psharp.Trace.length report.Error.trace))
      found;
    0

let check run =
  let config = { run.config with E.collect_log_on_bug = true } in
  match E.run ~monitors:run.entry.Bug_catalog.monitors config run.harness with
  | E.No_bug stats ->
    Format.printf "fixed variant clean over %d execution(s) (%.2fs%s)@."
      stats.E.executions stats.E.elapsed
      (if stats.E.plateaued then ", coverage plateau" else "");
    report_coverage run stats;
    0
  | E.Bug_found (report, stats) ->
    Format.printf "UNEXPECTED bug in fixed variant after %d execution(s):@.%a@."
      stats.E.executions Error.pp_report report;
    List.iter (Format.printf "%s@.") report.Error.log;
    report_coverage run stats;
    1

let explore run =
  let stats =
    E.explore ~monitors:run.entry.Bug_catalog.monitors run.config run.harness
  in
  report_coverage ~table:true run stats;
  Format.printf "explored %d execution(s) in %.2fs (%d total steps%s%s)@."
    stats.E.executions stats.E.elapsed stats.E.total_steps
    (if stats.E.plateaued then ", coverage plateau" else "")
    (if stats.E.timed_out then ", stopped at the time budget" else "");
  0

let hunt_cmd =
  run_cmd "hunt" ~doc:"Systematically search for a catalog bug."
    [
      Strategy; Seed; Executions; Steps; Custom; Log; Workers; Coverage;
      Plateau; Plateau_family; Faults; Reduce; Clock; Check_lin; Campaign;
      Fuzz_v2; Scenario;
    ]
    Term.(const hunt $ trace_out_arg $ shrink_arg)

let replay_cmd =
  run_cmd "replay" ~doc:"Replay a recorded buggy schedule."
    [ Custom; Log; Check_lin; History_out; Scenario ]
    Term.(const replay $ trace_in_arg)

let survey_cmd =
  run_cmd "survey"
    ~doc:
      "Explore the whole execution budget and report every distinct \
       violation with its frequency."
    [ Strategy; Seed; Executions; Custom; Workers; Faults; Clock ]
    (Term.const survey)

let check_cmd =
  run_cmd "check" ~fixed:true
    ~doc:"Run the bug's fixed variant and expect no violations."
    [ Seed; Executions; Coverage; Plateau; Faults; Reduce; Clock; Check_lin ]
    (Term.const check)

let explore_cmd =
  run_cmd "explore" ~collects:true
    ~doc:
      "Run the whole execution budget with coverage on, without stopping at \
       bugs, and report the coverage reached."
    [
      Strategy; Seed; Executions; Steps; Custom; Workers; Coverage; Plateau;
      Plateau_family; Faults; Reduce; Clock; Fuzz_v2;
    ]
    (Term.const explore)

(* --- list, scenario ----------------------------------------------------- *)

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

let scenario_pos_arg =
  let doc = "Scenario name (see `scenario list')." in
  Arg.(
    required & pos 0 (some scenario_conv) None & info [] ~docv:"SCENARIO" ~doc)

(* scenario run SCENARIO [BUG] is hunt BUG --scenario SCENARIO; the target
   defaults to the scenario's first (most characteristic) catalog bug. *)
let scenario_target =
  let bug_arg =
    let doc = "Target bug (defaults to the scenario's first target)." in
    Arg.(value & pos 1 (some bug_conv) None & info [] ~docv:"BUG" ~doc)
  in
  Term.(
    const (fun s bug ->
        let bug =
          match bug with
          | Some e -> Ok e
          | None -> find_bug (List.hd s.Scenario_catalog.targets)
        in
        Result.map (fun e -> (e, Some s)) bug)
    $ scenario_pos_arg $ bug_arg)

let scenario_cmd =
  let list () =
    Printf.printf "%-20s %-55s %s\n" "Scenario" "Summary" "Targets";
    List.iter
      (fun e ->
        Printf.printf "%-20s %-55s %s\n" e.Scenario_catalog.name
          e.Scenario_catalog.summary
          (String.concat "," e.Scenario_catalog.targets))
      Scenario_catalog.all;
    0
  in
  let describe e =
    Printf.printf "%s — %s\n\n%stargets: %s\n" e.Scenario_catalog.name
      e.Scenario_catalog.summary e.Scenario_catalog.text
      (String.concat ", " e.Scenario_catalog.targets);
    0
  in
  Cmd.group
    (Cmd.info "scenario" ~doc:"List, describe and run catalog scenarios.")
    [
      Cmd.v
        (Cmd.info "list" ~doc:"List the scenario catalog.")
        Term.(const list $ const ());
      Cmd.v
        (Cmd.info "describe"
           ~doc:"Print a scenario's canonical text and target bugs.")
        Term.(const describe $ scenario_pos_arg);
      run_cmd "run" ~target:scenario_target
        ~doc:
          "Hunt a target bug under a scenario (equivalent to `hunt BUG \
           --scenario SCENARIO')."
        [ Strategy; Seed; Executions; Steps; Log; Workers; Faults; Clock ]
        Term.(const hunt $ trace_out_arg $ shrink_arg);
    ]

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
