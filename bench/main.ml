(* Benchmark harness: regenerates every quantitative result of the paper.

   - [table1]: modeling-cost statistics (paper Table 1)
   - [table2]: bug-finding results for the random and priority-based
     schedulers (paper Table 2)
   - [vnext-fix]: the §3.6 fix validation (no bug in many executions)
   - [ablation]: scheduler / change-point / liveness-bound sweeps (ours)
   - [coverage-growth]: coverage-over-executions for random vs PCT vs
     feedback-directed fuzz (ours)
   - [micro]: bechamel micro-benchmarks of engine throughput (ours)

   With no arguments, everything runs with a wall-clock-friendly execution
   budget; [--full] restores the paper's 100,000-execution budget. *)

module E = Psharp.Engine
module Bug_catalog = Catalog.Bug_catalog
module Error = Psharp.Error
module Scenario_catalog = Catalog.Scenario_catalog

let base_seed = 1L

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let loc_of_files files =
  let count file =
    if Sys.file_exists file then begin
      let ic = open_in file in
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> close_in ic);
      !n
    end
    else 0
  in
  List.fold_left (fun acc f -> acc + count f) 0 files

let lib d names = List.map (fun n -> Printf.sprintf "lib/%s/%s.ml" d n) names

type table1_row = {
  label : string;
  system_files : string list;
  harness_files : string list;
  bugs_modeled : int;
  machine_names : string list;  (** registry names counted for #M/#ST/#AH *)
  paper : string;  (** the paper's row, for side-by-side comparison *)
}

let table1_rows =
  [
    {
      label = "vNext Extent Manager";
      system_files =
        lib "vnext" [ "extent_manager"; "extent_center"; "extent_node_map" ];
      harness_files =
        lib "vnext"
          [ "events"; "relay"; "extent_node"; "mgr_machine"; "testing_driver";
            "repair_monitor"; "bug_flags" ];
      bugs_modeled = 1;
      machine_names =
        [ "ExtentManager"; "ExtentNode"; "NetworkEngine"; "TestingDriver";
          "Timer"; "RepairMonitor" ];
      paper = "19,775 LoC, 1 bug; harness 684 LoC, 5 M, 11 ST, 17 AH";
    };
    {
      label = "MigratingTable";
      system_files =
        lib "chaintable"
          [ "migrating_table"; "migrator"; "reference_table"; "table_types";
            "filter"; "filter0"; "internal"; "phase" ];
      harness_files =
        lib "chaintable"
          [ "events"; "tables_machine"; "service_machine"; "migrator_machine";
            "remote_backend"; "workload"; "harness"; "spec_check"; "linearize";
            "backend"; "bug_flags" ];
      bugs_modeled = 11;
      machine_names = [ "Tables"; "Service"; "Migrator"; "MigrationHarness" ];
      paper = "2,267 LoC, 11 bugs; harness 2,275 LoC, 3 M, 5 ST, 10 AH";
    };
    {
      label = "Fabric User Service";
      system_files = lib "fabric" [ "service"; "chained" ];
      harness_files =
        lib "fabric"
          [ "cluster_manager"; "replica"; "events"; "monitors"; "client";
            "harness"; "bug_flags" ];
      bugs_modeled = 2;
      machine_names =
        [ "FailoverManager"; "Replica"; "FabricClient"; "FabricTestingDriver";
          "FabricSinglePrimary"; "FabricClientLiveness"; "CScaleSource";
          "CScaleTransform"; "CScaleAggregator"; "CScaleControlRelay" ];
      paper = "31,959 LoC, 1 bug; harness 6,534 LoC, 13 M, 21 ST, 87 AH";
    };
  ]

(* Run each harness a few executions so the registry sees every machine,
   state and transition. *)
let populate_registry () =
  let quick harness monitors max_steps =
    let cfg =
      {
        E.default_config with
        max_executions = 3;
        max_steps;
        seed = base_seed;
      }
    in
    ignore (E.run ~monitors cfg harness)
  in
  quick
    (Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.none
       ~scenario:Vnext.Testing_driver.Fail_and_repair ())
    (fun () -> Vnext.Testing_driver.monitors ())
    3_000;
  quick (Chaintable.Harness.test ()) (fun () -> []) 4_000;
  quick (Fabric.Harness.test ())
    (fun () -> Fabric.Harness.monitors ())
    3_000;
  quick (Fabric.Chained.test ()) (fun () -> []) 2_000;
  quick
    (Replication.Harness.test ~bugs:Replication.Bug_flags.none ())
    (fun () -> Replication.Harness.monitors ())
    2_000

let table1 () =
  print_endline "== Table 1: cost of environment modeling ==";
  print_endline
    "(LoC are this reproduction's; the paper's row is shown for shape \
     comparison)";
  populate_registry ();
  Printf.printf "%-22s | %10s %3s | %11s %3s %4s %4s\n" "System" "Sys LoC"
    "#B" "Harness LoC" "#M" "#ST" "#AH";
  print_endline (String.make 78 '-');
  List.iter
    (fun row ->
      let stats = Psharp.Registry.machines () in
      let mine =
        List.filter
          (fun s -> List.mem s.Psharp.Registry.machine row.machine_names)
          stats
      in
      let n_machines = List.length mine in
      let n_states =
        List.fold_left (fun a s -> a + s.Psharp.Registry.states) 0 mine
      in
      let n_handlers =
        List.fold_left (fun a s -> a + s.Psharp.Registry.handlers) 0 mine
      in
      let n_transitions =
        List.fold_left
          (fun a s ->
            a + Psharp.Registry.transitions ~machine:s.Psharp.Registry.machine)
          0 mine
      in
      Printf.printf "%-22s | %10d %3d | %11d %3d %4d %4d\n" row.label
        (loc_of_files row.system_files)
        row.bugs_modeled
        (loc_of_files row.harness_files)
        n_machines
        (n_states + n_transitions)
        n_handlers;
      Printf.printf "%-22s | paper: %s\n" "" row.paper)
    table1_rows;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Table 2                                                             *)
(* ------------------------------------------------------------------ *)

type bug_run = {
  found : [ `Found | `Custom | `Not_found ];
  time_to_bug : float;
  ndc : int;
  executions : int;
}

let run_one entry ~strategy ~budget ~harness =
  let cfg =
    {
      E.default_config with
      strategy;
      seed = base_seed;
      max_executions = budget;
      max_steps = entry.Bug_catalog.max_steps;
    }
  in
  let started = Unix.gettimeofday () in
  match E.run ~monitors:entry.Bug_catalog.monitors cfg harness with
  | E.Bug_found (report, stats) ->
    Some
      ( Unix.gettimeofday () -. started,
        Psharp.Trace.length report.Error.trace,
        stats.E.executions )
  | E.No_bug _ -> None

let hunt entry ~strategy ~budget =
  match run_one entry ~strategy ~budget ~harness:entry.Bug_catalog.harness with
  | Some (t, ndc, execs) ->
    { found = `Found; time_to_bug = t; ndc; executions = execs }
  | None -> begin
    match entry.Bug_catalog.custom_harness with
    | None -> { found = `Not_found; time_to_bug = 0.; ndc = 0; executions = 0 }
    | Some custom -> begin
      match run_one entry ~strategy ~budget ~harness:custom with
      | Some (t, ndc, execs) ->
        { found = `Custom; time_to_bug = t; ndc; executions = execs }
      | None ->
        { found = `Not_found; time_to_bug = 0.; ndc = 0; executions = 0 }
    end
  end

let pp_run r =
  match r.found with
  | `Not_found -> Printf.sprintf "%-2s %9s %7s" "x" "-" "-"
  | `Found | `Custom ->
    Printf.sprintf "%-2s %8.2fs %7d"
      (match r.found with `Found -> "Y" | `Custom -> "(Y)" | `Not_found -> "x")
      r.time_to_bug r.ndc

let table2 ~budget () =
  Printf.printf
    "== Table 2: systematic testing results (budget %d executions, seed %Ld) \
     ==\n"
    budget base_seed;
  print_endline
    "Y = found, (Y) = found only with the custom (pinned-input) test case, \
     x = not found";
  Printf.printf "%-3s %-40s | %-22s | %-22s\n" "CS" "Bug Identifier"
    "Random (BF?/time/#NDC)" "PCT d=2 (BF?/time/#NDC)";
  print_endline (String.make 98 '-');
  List.iter
    (fun entry ->
      let random = hunt entry ~strategy:E.Random ~budget in
      let pct = hunt entry ~strategy:(E.Pct { change_points = 2 }) ~budget in
      Printf.printf "%-3s %-40s | %s | %s\n"
        (Bug_catalog.case_study_to_string entry.Bug_catalog.case_study)
        entry.Bug_catalog.name (pp_run random) (pp_run pct))
    Bug_catalog.table2;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* §3.6 fix validation                                                 *)
(* ------------------------------------------------------------------ *)

let vnext_fix ~budget () =
  Printf.printf "== §3.6: fixed Extent Manager, %d executions ==\n" budget;
  let cfg =
    {
      E.default_config with
      seed = base_seed;
      max_executions = budget;
      max_steps = 3_000;
    }
  in
  let started = Unix.gettimeofday () in
  (match
     E.run
       ~monitors:(fun () -> Vnext.Testing_driver.monitors ())
       cfg
       (Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.none
          ~scenario:Vnext.Testing_driver.Fail_and_repair ())
   with
   | E.No_bug stats ->
     Printf.printf "no bugs found during %d executions (%.1fs)\n"
       stats.E.executions
       (Unix.gettimeofday () -. started)
   | E.Bug_found (report, stats) ->
     Printf.printf "UNEXPECTED bug after %d executions: %s\n"
       stats.E.executions
       (Error.kind_to_string report.Error.kind));
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation ~budget () =
  print_endline "== Ablation 1: scheduler comparison (example bug 1, safety) ==";
  let entry = Bug_catalog.find "ExampleDuplicateReplicaAck" in
  List.iter
    (fun (name, strategy) ->
      let r = hunt entry ~strategy ~budget in
      Printf.printf "  %-22s %s\n" name (pp_run r))
    [
      ("random", E.Random);
      ("pct (d=2)", E.Pct { change_points = 2 });
      ("round-robin", E.Round_robin);
      ("dfs (depth 60)", E.Dfs { max_depth = 60; int_cap = 2 });
      ("delay-bounded (2)", E.Delay_bounded { delays = 2 });
    ];
  print_endline
    "== Ablation 2: PCT change-point budget on QueryStreamedBackUpNewStream ==";
  let entry = Bug_catalog.find "QueryStreamedBackUpNewStream" in
  List.iter
    (fun d ->
      let r = hunt entry ~strategy:(E.Pct { change_points = d }) ~budget in
      Printf.printf "  d=%-2d %s (executions to bug: %d)\n" d (pp_run r)
        r.executions)
    [ 1; 2; 4; 8 ];
  print_endline "== Ablation 3: liveness bound on ExtentNodeLivenessViolation ==";
  let entry = Bug_catalog.find "ExtentNodeLivenessViolation" in
  List.iter
    (fun max_steps ->
      let entry = { entry with Bug_catalog.max_steps } in
      let r = hunt entry ~strategy:E.Random ~budget:(min budget 3_000) in
      Printf.printf "  max_steps=%-5d %s\n" max_steps (pp_run r))
    [ 1_000; 2_000; 3_000 ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Sample protocols (Paxos / Raft)                                     *)
(* ------------------------------------------------------------------ *)

let samples ~budget () =
  Printf.printf
    "== Sample protocols (P# repo samples the paper references, sec 2.3) ==\n";
  Printf.printf "%-3s %-40s | %-22s | %-22s\n" "CS" "Bug Identifier"
    "Random (BF?/time/#NDC)" "PCT d=2 (BF?/time/#NDC)";
  print_endline (String.make 98 '-');
  List.iter
    (fun entry ->
      let random = hunt entry ~strategy:E.Random ~budget in
      let pct = hunt entry ~strategy:(E.Pct { change_points = 2 }) ~budget in
      Printf.printf "%-3s %-40s | %s | %s\n"
        (Bug_catalog.case_study_to_string entry.Bug_catalog.case_study)
        entry.Bug_catalog.name (pp_run random) (pp_run pct))
    (List.filter
       (fun e -> e.Bug_catalog.case_study = Bug_catalog.Cs_sample)
       Bug_catalog.all);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Parallel scaling (Worker_pool across OCaml 5 domains)               *)
(* ------------------------------------------------------------------ *)

(* Throughput of the random-strategy vNext harness at increasing worker
   counts. The fixed (bug-free) variant is used so every execution runs to
   completion and the measurement is pure engine throughput, not
   time-to-bug luck. Results land in BENCH_parallel.json, alongside the
   pre-sharding baseline (per-execution shared-mutex coverage merging and
   domains spawned past the core count) for the before/after comparison.
   With [gate] set, a 2-worker speedup below the graceful-oversubscription
   floor fails the process — the CI regression gate. *)

let speedup_floor = 0.8

let scaling_baseline =
  (* measured on this 1-core container before per-worker coverage sharding,
     batched claiming and the domain-count clamp (see EXPERIMENTS.md) *)
  [ (1, 1.000); (2, 0.230); (4, 0.126); (8, 0.088) ]

let parallel_scaling ~budget ?(gate = false) () =
  Printf.printf
    "== Parallel scaling: random-strategy vNext harness, %d executions ==\n"
    budget;
  Printf.printf "(available cores: %d)\n" (Domain.recommended_domain_count ());
  let harness =
    Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.none
      ~scenario:Vnext.Testing_driver.Fail_and_repair ()
  in
  let monitors () = Vnext.Testing_driver.monitors () in
  let measure workers =
    let cfg =
      {
        E.default_config with
        seed = base_seed;
        max_executions = budget;
        max_steps = 3_000;
        workers;
      }
    in
    match E.run ~monitors cfg harness with
    | E.No_bug stats -> stats
    | E.Bug_found (report, stats) ->
      Printf.printf "UNEXPECTED bug during scaling run: %s\n"
        (Error.kind_to_string report.Error.kind);
      stats
  in
  let rows =
    List.map
      (fun workers ->
        let stats = measure workers in
        let throughput =
          if stats.E.elapsed > 0. then
            float_of_int stats.E.executions /. stats.E.elapsed
          else 0.
        in
        (workers, stats, throughput))
      [ 1; 2; 4; 8 ]
  in
  let base =
    match rows with
    | (_, _, t) :: _ -> t
    | [] -> 0.
  in
  Printf.printf "%8s %12s %10s %14s %9s\n" "workers" "executions" "elapsed"
    "execs/sec" "speedup";
  List.iter
    (fun (w, stats, t) ->
      Printf.printf "%8d %12d %9.2fs %14.1f %8.2fx\n" w stats.E.executions
        stats.E.elapsed t
        (if base > 0. then t /. base else 0.))
    rows;
  let oc = open_out "BENCH_parallel.json" in
  output_string oc "{\n";
  Printf.fprintf oc "  \"harness\": \"vnext-fixed-random\",\n";
  Printf.fprintf oc "  \"budget\": %d,\n" budget;
  Printf.fprintf oc "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  output_string oc "  \"points\": [\n";
  List.iteri
    (fun i (w, stats, t) ->
      Printf.fprintf oc
        "    {\"workers\": %d, \"executions\": %d, \"total_steps\": %d, \
         \"elapsed_s\": %.4f, \"execs_per_sec\": %.1f, \"speedup\": %.3f}%s\n"
        w stats.E.executions stats.E.total_steps stats.E.elapsed t
        (if base > 0. then t /. base else 0.)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ],\n";
  output_string oc
    "  \"baseline_pre_sharding\": {\"note\": \"per-execution shared-mutex \
     coverage merge, no domain clamp, 1 core\", \"points\": [\n";
  List.iteri
    (fun i (w, s) ->
      Printf.fprintf oc "    {\"workers\": %d, \"speedup\": %.3f}%s\n" w s
        (if i = List.length scaling_baseline - 1 then "" else ","))
    scaling_baseline;
  output_string oc "  ]}\n}\n";
  close_out oc;
  print_endline "wrote BENCH_parallel.json";
  let speedup_at w =
    List.find_map
      (fun (w', _, t) ->
        if w' = w && base > 0. then Some (t /. base) else None)
      rows
  in
  (match speedup_at 2 with
   | Some s when gate && s < speedup_floor ->
     Printf.printf
       "FAIL: 2-worker speedup %.3f below the %.2f \
        graceful-oversubscription floor\n"
       s speedup_floor;
     exit 1
   | Some s when gate ->
     Printf.printf "gate: 2-worker speedup %.3f >= %.2f floor\n" s
       speedup_floor
   | _ -> ());
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Persistent campaigns (warm-start bug finding)                       *)
(* ------------------------------------------------------------------ *)

(* ISSUE 8 acceptance benchmark: does resuming a campaign find the bug in
   fewer executions than a cold start? For each bug, a cold uninterrupted
   fuzz hunt is compared against a two-invocation campaign — a short warm
   invocation whose coverage and corpus are carried into a resumed one
   (exactly the state `psharp_test hunt --campaign` persists). The
   resumed invocation starts with the corpus and the coverage history, so
   its executions-to-first-bug should drop. Results land in
   BENCH_campaign.json. *)

module Fuzz_exchange = Psharp.Fuzz_strategy.Exchange

(* (bug, warm-invocation budget): warm budgets sit below each bug's cold
   executions-to-first-bug so the warm invocation ends bug-free and the
   resumed one does the finding. *)
let campaign_cases =
  [
    ("QueryAtomicFilterShadowing", 8);
    ("DeleteNoLeaveTombstonesEtag", 16);
    ("ChaintableRetryFreshSeq", 7);
  ]

let campaign_bench ~budget () =
  Printf.printf
    "== Persistent campaigns: cold vs resumed fuzz hunt, budget %d (seed \
     %Ld) ==\n"
    budget base_seed;
  let hunt_execs entry cfg =
    match
      E.run ~monitors:entry.Bug_catalog.monitors cfg
        entry.Bug_catalog.harness
    with
    | E.Bug_found (_, stats) -> (Some stats.E.executions, stats)
    | E.No_bug stats -> (None, stats)
  in
  let rows =
    List.map
      (fun (name, warm_budget) ->
        let entry = Bug_catalog.find name in
        let base_cfg =
          {
            E.default_config with
            strategy = E.Fuzz { corpus_cap = 32 };
            seed = base_seed;
            max_steps = entry.Bug_catalog.max_steps;
            faults = entry.Bug_catalog.faults;
            clock = entry.Bug_catalog.clock;
          }
        in
        let cold, _ =
          hunt_execs entry { base_cfg with max_executions = budget }
        in
        (* warm invocation: the campaign's first run, collecting corpus
           (through the exchange hub) and coverage *)
        let hub = Fuzz_exchange.create () in
        let _, warm_stats =
          hunt_execs entry
            {
              base_cfg with
              max_executions = warm_budget;
              collect_coverage = true;
              fuzz_exchange = Some hub;
            }
        in
        let corpus = Fuzz_exchange.snapshot hub in
        (* resumed invocation: fresh iterations, prior coverage and corpus
           — the state `hunt --campaign` reloads *)
        let resumed, _ =
          hunt_execs entry
            {
              base_cfg with
              max_executions = budget;
              start_iteration = warm_stats.E.executions;
              prior_coverage = warm_stats.E.coverage;
              collect_coverage = true;
              fuzz_exchange = Some (Fuzz_exchange.of_entries corpus);
            }
        in
        (name, warm_budget, List.length corpus, cold, resumed))
      campaign_cases
  in
  let pp_execs = function Some n -> string_of_int n | None -> "not-found" in
  Printf.printf "%-36s %9s %7s %12s %14s\n" "bug" "warm" "corpus"
    "cold execs" "resumed execs";
  print_endline (String.make 84 '-');
  List.iter
    (fun (name, warm, corpus, cold, resumed) ->
      Printf.printf "%-36s %9d %7d %12s %14s\n" name warm corpus
        (pp_execs cold) (pp_execs resumed))
    rows;
  let improved =
    List.length
      (List.filter
         (fun (_, _, _, cold, resumed) ->
           match (cold, resumed) with
           | Some c, Some r -> r < c
           | _ -> false)
         rows)
  in
  Printf.printf
    "resumed invocation beat the cold start on %d/%d bugs\n" improved
    (List.length rows);
  let oc = open_out "BENCH_campaign.json" in
  output_string oc "{\n";
  Printf.fprintf oc "  \"seed\": %Ld,\n" base_seed;
  Printf.fprintf oc "  \"budget\": %d,\n" budget;
  Printf.fprintf oc "  \"improved\": %d,\n" improved;
  output_string oc "  \"bugs\": [\n";
  let json_execs = function Some n -> string_of_int n | None -> "null" in
  List.iteri
    (fun i (name, warm, corpus, cold, resumed) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"warm_budget\": %d, \"corpus\": %d, \
         \"cold_execs_to_bug\": %s, \"resumed_execs_to_bug\": %s}%s\n"
        name warm corpus (json_execs cold) (json_execs resumed)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  print_endline "wrote BENCH_campaign.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Coverage growth (coverage maps + feedback-directed fuzzing)         *)
(* ------------------------------------------------------------------ *)

module Coverage = Psharp.Coverage

(* Coverage-over-executions for random vs PCT vs feedback-directed fuzz,
   at increasing execution budgets. [E.explore] is used instead of [E.run]
   so no strategy gets charged fewer executions for tripping a bug early,
   making the numbers comparable at a fixed budget. Results land in
   BENCH_coverage.json. *)

let coverage_strategies =
  [
    ("random", "random", E.Random);
    ("pct (d=2)", "pct2", E.Pct { change_points = 2 });
    ("fuzz", "fuzz", E.Fuzz { corpus_cap = 32 });
  ]

let coverage_totals_at entry ~strategy ~budget =
  let cfg =
    {
      E.default_config with
      strategy;
      seed = base_seed;
      max_executions = budget;
      max_steps = entry.Bug_catalog.max_steps;
    }
  in
  let stats = E.explore ~monitors:entry.Bug_catalog.monitors cfg
      entry.Bug_catalog.harness
  in
  match stats.E.coverage with
  | Some cov -> Coverage.totals cov
  | None -> assert false (* explore always collects coverage *)

let coverage_harness oc ~last entry ~budgets =
  Printf.printf "-- %s (max_steps %d) --\n" entry.Bug_catalog.name
    entry.Bug_catalog.max_steps;
  Printf.printf "%8s |" "budget";
  List.iter
    (fun (label, _, _) -> Printf.printf " %-26s |" (label ^ " st/ev/tr/br"))
    coverage_strategies;
  print_newline ();
  print_endline (String.make (10 + (29 * List.length coverage_strategies)) '-');
  let per_strategy =
    List.map
      (fun (label, json_name, strategy) ->
        ( label,
          json_name,
          List.map
            (fun budget -> (budget, coverage_totals_at entry ~strategy ~budget))
            budgets ))
      coverage_strategies
  in
  List.iteri
    (fun i budget ->
      Printf.printf "%8d |" budget;
      List.iter
        (fun (_, _, points) ->
          let t = snd (List.nth points i) in
          Printf.printf " %-26s |"
            (Printf.sprintf "%d/%d/%d/%d" t.Coverage.machine_states
               t.Coverage.event_types t.Coverage.transition_triples
               t.Coverage.branch_outcomes))
        per_strategy;
      print_newline ())
    budgets;
  (* The headline claim: feedback-directed fuzzing reaches more transition
     triples than undirected random search at the same budget. *)
  let final label =
    let _, _, points = List.find (fun (l, _, _) -> l = label) per_strategy in
    (snd (List.nth points (List.length budgets - 1)))
      .Coverage.transition_triples
  in
  let fuzz = final "fuzz" and random = final "random" in
  Printf.printf
    "final transition triples: fuzz %d vs random %d -> fuzz %s random\n" fuzz
    random
    (if fuzz > random then ">" else if fuzz = random then "=" else "<");
  Printf.fprintf oc "    {\n      \"name\": %S,\n      \"max_steps\": %d,\n"
    entry.Bug_catalog.name entry.Bug_catalog.max_steps;
  Printf.fprintf oc "      \"strategies\": [\n";
  List.iteri
    (fun i (_, json_name, points) ->
      Printf.fprintf oc "        {\"strategy\": %S, \"points\": [\n" json_name;
      List.iteri
        (fun j (budget, t) ->
          Printf.fprintf oc
            "          {\"budget\": %d, \"machine_states\": %d, \
             \"event_types\": %d, \"transition_triples\": %d, \
             \"branch_outcomes\": %d, \"unique_schedules\": %d, \
             \"executions\": %d}%s\n"
            budget t.Coverage.machine_states t.Coverage.event_types
            t.Coverage.transition_triples t.Coverage.branch_outcomes
            t.Coverage.unique_schedules t.Coverage.executions
            (if j = List.length points - 1 then "" else ","))
        points;
      Printf.fprintf oc "        ]}%s\n"
        (if i = List.length per_strategy - 1 then "" else ","))
    per_strategy;
  Printf.fprintf oc "      ]\n    }%s\n" (if last then "" else ",");
  print_newline ()

(* Replaying a recorded buggy schedule must reproduce the identical
   coverage fingerprint — the fingerprint is a pure function of the choice
   trace, and replay is deterministic. *)
let coverage_fingerprint_replay oc entry =
  let cfg =
    {
      E.default_config with
      seed = base_seed;
      max_executions = 20_000;
      max_steps = entry.Bug_catalog.max_steps;
      collect_coverage = true;
    }
  in
  match
    E.run ~monitors:entry.Bug_catalog.monitors cfg entry.Bug_catalog.harness
  with
  | E.No_bug _ ->
    Printf.printf "fingerprint replay: no bug found on %s (unexpected)\n"
      entry.Bug_catalog.name;
    Printf.fprintf oc "  \"fingerprint_replay\": {\"found\": false}\n"
  | E.Bug_found (report, _) ->
    let recorded = Coverage.fingerprint report.Error.trace in
    let result =
      E.replay ~monitors:entry.Bug_catalog.monitors cfg report.Error.trace
        entry.Bug_catalog.harness
    in
    let replayed = Coverage.fingerprint result.Psharp.Runtime.choices in
    Printf.printf
      "fingerprint replay on %s: recorded 0x%Lx, replayed 0x%Lx -> %s\n"
      entry.Bug_catalog.name recorded replayed
      (if Int64.equal recorded replayed then "identical" else "DIFFERENT");
    Printf.fprintf oc
      "  \"fingerprint_replay\": {\"found\": true, \"bug\": %S, \"recorded\": \
       \"0x%Lx\", \"replayed\": \"0x%Lx\", \"identical\": %b}\n"
      entry.Bug_catalog.name recorded replayed
      (Int64.equal recorded replayed)

(* Fuzz v2 on the fault-only catalog bugs: executions-to-first-bug under
   plain v1 fuzz vs the energy-scheduled fault-mutating v2, at the same
   seed and budget. These bugs fire only under injected faults (each
   entry's own spec), so the fault-tune operator has a real surface:
   perturbing recorded crash instants and drop/dup draws around a
   coverage-novel schedule. *)
let fuzz_v2_fault_bugs =
  [
    "ExtentNodeCrashLosesBinding";
    "ChaintableDuplicateBackendRequest";
    "FabricCrashSilentRestart";
  ]

let fuzz_v2_fault_block oc ~hunt_budget =
  Printf.printf
    "-- fuzz v2 vs plain fuzz on the fault-only bugs, budget %d --\n"
    hunt_budget;
  let execs entry ~v2 =
    let cfg =
      {
        E.default_config with
        strategy = E.Fuzz { corpus_cap = 32 };
        seed = base_seed;
        max_executions = hunt_budget;
        max_steps = entry.Bug_catalog.max_steps;
        faults = entry.Bug_catalog.faults;
        clock = entry.Bug_catalog.clock;
        reduce = (if v2 then E.Hb_track else E.No_reduction);
        fuzz_energy = v2;
        fuzz_mutate_faults = v2;
      }
    in
    match
      E.run ~monitors:entry.Bug_catalog.monitors cfg
        entry.Bug_catalog.harness
    with
    | E.Bug_found (_, stats) -> Some stats.E.executions
    | E.No_bug _ -> None
  in
  let rows =
    List.map
      (fun name ->
        let entry = Bug_catalog.find name in
        (name, execs entry ~v2:false, execs entry ~v2:true))
      fuzz_v2_fault_bugs
  in
  let pp_execs = function Some n -> string_of_int n | None -> "not-found" in
  Printf.printf "%-36s %12s %12s\n" "bug" "execs fuzz" "execs fzv2";
  print_endline (String.make 62 '-');
  List.iter
    (fun (name, fz, fz2) ->
      Printf.printf "%-36s %12s %12s\n" name (pp_execs fz) (pp_execs fz2))
    rows;
  let improved =
    List.length
      (List.filter
         (fun (_, fz, fz2) ->
           match (fz, fz2) with
           | Some a, Some b -> b <= a
           | None, Some _ -> true
           | _ -> false)
         rows)
  in
  Printf.printf "fuzz v2 <= plain fuzz on %d/%d fault-only bugs\n" improved
    (List.length rows);
  let json_execs = function Some n -> string_of_int n | None -> "null" in
  Printf.fprintf oc
    "  \"fuzz_v2_fault_bugs\": {\"hunt_budget\": %d, \"bugs\": [\n" hunt_budget;
  List.iteri
    (fun i (name, fz, fz2) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"execs_to_first_bug_fuzz\": %s, \
         \"execs_to_first_bug_fuzz_v2\": %s}%s\n"
        name (json_execs fz) (json_execs fz2)
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]},\n"


(* PR 9 noted one fuzz-v2 regression: on the fault-free vnext liveness
   bug the energy schedule mutates long random tails (the liveness
   witness is a whole bound-length execution, so truncated mutants
   rarely stay hot) and v2 reached the bug later than v1 — the corpus
   held nothing worth mutating. The fix is a scenario-warmed pipeline:
   a cheap scenario-constrained random hunt (starve-network: pause the
   relay mid-run so in-flight sync reports go stale — the resurrection
   shape of this bug, and schedule-only, so the witness's draw
   vocabulary matches Fault.none) finds a witness much earlier than
   plain random, and a prefix of that witness seeds the fuzz-v2 corpus
   with a structured, bug-adjacent opening. The seeded column charges
   the seeding hunt's executions too, so the comparison stays honest. *)
let scenario_seed_prefix entry ~scenario_name ~budget ~prefix_choices =
  let scat = Scenario_catalog.find scenario_name in
  let scen = scat.Scenario_catalog.scenario in
  let cfg =
    {
      E.default_config with
      strategy = E.Random;
      seed = base_seed;
      max_executions = budget;
      max_steps = entry.Bug_catalog.max_steps;
      faults = Psharp.Scenario.arm scen entry.Bug_catalog.faults;
      clock = entry.Bug_catalog.clock;
      scenario = Some scen;
    }
  in
  match
    E.run ~monitors:entry.Bug_catalog.monitors cfg entry.Bug_catalog.harness
  with
  | E.Bug_found (report, stats) ->
    let prefix =
      Psharp.Trace.of_list
        (List.filteri
           (fun j _ -> j < prefix_choices)
           (Psharp.Trace.to_list report.Psharp.Error.trace))
    in
    (stats.E.executions, Some prefix)
  | E.No_bug stats -> (stats.E.executions, None)

let fuzz_v2_liveness_block oc ~hunt_budget =
  let entry = Bug_catalog.find "ExtentNodeLivenessViolation" in
  let seed_scenario = "starve-network" in
  let seed_prefix = 2_000 in
  Printf.printf
    "-- fuzz v2 on the fault-free vnext liveness bug, budget %d --\n"
    hunt_budget;
  let execs ~v2 ~fuzz_initial =
    let cfg =
      {
        E.default_config with
        strategy = E.Fuzz { corpus_cap = 32 };
        seed = base_seed;
        max_executions = hunt_budget;
        max_steps = entry.Bug_catalog.max_steps;
        faults = entry.Bug_catalog.faults;
        clock = entry.Bug_catalog.clock;
        reduce = (if v2 then E.Hb_track else E.No_reduction);
        fuzz_energy = v2;
        fuzz_mutate_faults = v2;
        fuzz_initial;
      }
    in
    match
      E.run ~monitors:entry.Bug_catalog.monitors cfg
        entry.Bug_catalog.harness
    with
    | E.Bug_found (_, stats) -> Some stats.E.executions
    | E.No_bug _ -> None
  in
  let v1 = execs ~v2:false ~fuzz_initial:[] in
  let v2_cold = execs ~v2:true ~fuzz_initial:[] in
  let seed_execs, prefix =
    scenario_seed_prefix entry ~scenario_name:seed_scenario
      ~budget:hunt_budget ~prefix_choices:seed_prefix
  in
  let v2_seeded =
    match prefix with
    | None -> None
    | Some p ->
      execs ~v2:true ~fuzz_initial:[ Psharp.Fuzz_strategy.entry_of_trace p ]
  in
  let total_seeded =
    match v2_seeded with Some n -> Some (seed_execs + n) | None -> None
  in
  let pp = function Some n -> string_of_int n | None -> "not-found" in
  Printf.printf "%-30s %10s %10s %10s %10s\n" "bug" "fuzz" "fzv2-cold"
    "seed-hunt" "fzv2-total";
  print_endline (String.make 76 '-');
  Printf.printf "%-30s %10s %10s %10s %10s\n" entry.Bug_catalog.name (pp v1)
    (pp v2_cold) (string_of_int seed_execs) (pp total_seeded);
  let json = function Some n -> string_of_int n | None -> "null" in
  Printf.fprintf oc
    "  \"fuzz_v2_vnext_liveness\": {\"hunt_budget\": %d, \"bug\": %S,      \"seed_scenario\": %S, \"seed_prefix_choices\": %d,      \"execs_to_first_bug_fuzz\": %s, \"execs_to_first_bug_fuzz_v2\": %s,      \"seed_hunt_execs\": %d, \"execs_to_first_bug_fuzz_v2_seeded\": %s,      \"execs_to_first_bug_fuzz_v2_seeded_total\": %s},\n"
    hunt_budget entry.Bug_catalog.name seed_scenario seed_prefix (json v1)
    (json v2_cold) seed_execs (json v2_seeded) (json total_seeded)

let coverage_growth ~budgets ~fuzz_budget () =
  Printf.printf
    "== Coverage growth: random vs PCT vs fuzz, budgets %s (seed %Ld) ==\n"
    (String.concat "/" (List.map string_of_int budgets))
    base_seed;
  print_endline
    "(st/ev/tr/br = machine states / event types / transition triples / \
     branch outcomes)";
  let entries =
    [
      Bug_catalog.find "ExtentNodeLivenessViolation";
      Bug_catalog.find "QueryStreamedLock";
    ]
  in
  let oc = open_out "BENCH_coverage.json" in
  output_string oc "{\n";
  Printf.fprintf oc "  \"seed\": %Ld,\n" base_seed;
  Printf.fprintf oc "  \"budgets\": [%s],\n"
    (String.concat ", " (List.map string_of_int budgets));
  output_string oc "  \"harnesses\": [\n";
  List.iteri
    (fun i entry ->
      coverage_harness oc ~last:(i = List.length entries - 1) entry ~budgets)
    entries;
  output_string oc "  ],\n";
  fuzz_v2_fault_block oc ~hunt_budget:fuzz_budget;
  fuzz_v2_liveness_block oc ~hunt_budget:fuzz_budget;
  coverage_fingerprint_replay oc (Bug_catalog.find "ExtentNodeLivenessViolation");
  output_string oc "}\n";
  close_out oc;
  print_endline "wrote BENCH_coverage.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Executions/sec throughput                                           *)
(* ------------------------------------------------------------------ *)

(* Raw engine throughput on the three case-study harnesses under three
   observability configurations: plain (logging and coverage off — the
   bug-hunting hot path), coverage collection on, and per-execution
   logging on. Drives [Runtime.execute] directly with the seeded random
   strategy, mirroring the engine's per-execution coverage bookkeeping
   (fresh per-execution map absorbed into an accumulator), so the numbers
   isolate engine + harness cost. Results land in BENCH_throughput.json. *)

module Runtime = Psharp.Runtime

type throughput_case = {
  tname : string;
  t_harness : Runtime.ctx -> unit;
  t_monitors : unit -> Psharp.Monitor.t list;
  t_max_steps : int;
}

let throughput_cases () =
  [
    {
      tname = "vnext";
      t_harness =
        Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.none
          ~scenario:Vnext.Testing_driver.Fail_and_repair ();
      t_monitors = (fun () -> Vnext.Testing_driver.monitors ());
      t_max_steps = 3_000;
    };
    {
      tname = "chaintable";
      t_harness = Chaintable.Harness.test ();
      t_monitors = (fun () -> []);
      t_max_steps = 4_000;
    };
    {
      tname = "fabric";
      t_harness = Fabric.Harness.test ();
      t_monitors = (fun () -> Fabric.Harness.monitors ());
      t_max_steps = 3_000;
    };
  ]

type throughput_point = {
  p_config : string;
  p_executions : int;
  p_steps : int;
  p_elapsed : float;
}

let measure_throughput ?(faults = Psharp.Fault.none) ~budget ~collect_log
    ~coverage case =
  let factory = Psharp.Random_strategy.factory ~seed:base_seed in
  let acc = if coverage then Some (Coverage.create ()) else None in
  let total_steps = ref 0 in
  let started = Unix.gettimeofday () in
  for i = 0 to budget - 1 do
    match factory.Psharp.Strategy.fresh ~iteration:i with
    | None -> ()
    | Some strategy ->
      let exec_cov = Option.map (fun _ -> Coverage.create ()) acc in
      let cfg =
        {
          Runtime.max_steps = case.t_max_steps;
          liveness_grace = None;
          deadlock_is_bug = true;
          collect_log;
          coverage = exec_cov;
          hb = None;
          faults;
          deadline = None;
          clock = None;
          scenario = None;
        }
      in
      let result =
        Runtime.execute cfg strategy ~monitors:(case.t_monitors ())
          ~name:"Harness" case.t_harness
      in
      total_steps := !total_steps + result.Runtime.steps;
      (match (acc, exec_cov) with
       | Some acc, Some exec ->
         Coverage.note_execution exec
           ~fingerprint:(Coverage.fingerprint result.Runtime.choices);
         ignore (Coverage.absorb ~into:acc exec)
       | _ -> ())
  done;
  {
    p_config =
      (match (collect_log, coverage) with
       | false, false -> "plain"
       | false, true -> "coverage"
       | true, false -> "logging"
       | true, true -> "logging+coverage");
    p_executions = budget;
    p_steps = !total_steps;
    p_elapsed = Unix.gettimeofday () -. started;
  }

let exec_throughput ~budget () =
  Printf.printf
    "== Executions/sec: random strategy, %d executions per config (seed %Ld) \
     ==\n"
    budget base_seed;
  let configs =
    [ (false, false); (false, true); (true, false) ]
  in
  let rows =
    List.map
      (fun case ->
        let points =
          List.map
            (fun (collect_log, coverage) ->
              measure_throughput ~budget ~collect_log ~coverage case)
            configs
        in
        (case, points))
      (throughput_cases ())
  in
  Printf.printf "%-11s %-16s %12s %12s %14s %14s\n" "harness" "config"
    "executions" "steps" "execs/sec" "steps/sec";
  print_endline (String.make 84 '-');
  List.iter
    (fun (case, points) ->
      List.iter
        (fun p ->
          let eps =
            if p.p_elapsed > 0. then float_of_int p.p_executions /. p.p_elapsed
            else 0.
          and sps =
            if p.p_elapsed > 0. then float_of_int p.p_steps /. p.p_elapsed
            else 0.
          in
          Printf.printf "%-11s %-16s %12d %12d %14.1f %14.0f\n" case.tname
            p.p_config p.p_executions p.p_steps eps sps)
        points)
    rows;
  let oc = open_out "BENCH_throughput.json" in
  output_string oc "{\n";
  Printf.fprintf oc "  \"seed\": %Ld,\n" base_seed;
  Printf.fprintf oc "  \"budget\": %d,\n" budget;
  Printf.fprintf oc "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  output_string oc "  \"harnesses\": [\n";
  List.iteri
    (fun i (case, points) ->
      Printf.fprintf oc "    {\"name\": %S, \"max_steps\": %d, \"configs\": [\n"
        case.tname case.t_max_steps;
      List.iteri
        (fun j p ->
          let eps =
            if p.p_elapsed > 0. then float_of_int p.p_executions /. p.p_elapsed
            else 0.
          and sps =
            if p.p_elapsed > 0. then float_of_int p.p_steps /. p.p_elapsed
            else 0.
          in
          Printf.fprintf oc
            "      {\"config\": %S, \"executions\": %d, \"total_steps\": %d, \
             \"elapsed_s\": %.4f, \"execs_per_sec\": %.1f, \
             \"steps_per_sec\": %.0f}%s\n"
            p.p_config p.p_executions p.p_steps p.p_elapsed eps sps
            (if j = List.length points - 1 then "" else ","))
        points;
      Printf.fprintf oc "    ]}%s\n"
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  print_endline "wrote BENCH_throughput.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Fault-injection overhead                                            *)
(* ------------------------------------------------------------------ *)

(* The substrate's contract is that a disabled spec costs nothing: every
   [send_faulty] degenerates to a plain [send] with zero strategy draws
   (the golden-digest tests pin the schedules bit-for-bit), so throughput
   with [Fault.none] must match the pre-substrate baseline. This section
   quantifies that, plus the price actually paid when faults are armed. *)
let fault_overhead ~budget () =
  Printf.printf
    "== Fault-injection overhead: random strategy, %d executions per spec \
     (seed %Ld) ==\n"
    budget base_seed;
  let specs =
    [
      ("disabled", Psharp.Fault.none);
      ( "msg-faults(b=2)",
        Psharp.Fault.make ~budget:2
          [ Psharp.Fault.Drop; Psharp.Fault.Duplicate; Psharp.Fault.Delay ] );
      ( "all-faults(b=2)",
        Psharp.Fault.make ~budget:2
          [
            Psharp.Fault.Drop; Psharp.Fault.Duplicate; Psharp.Fault.Delay;
            Psharp.Fault.Crash;
          ] );
    ]
  in
  let rows =
    List.map
      (fun case ->
        let points =
          List.map
            (fun (label, faults) ->
              let p =
                measure_throughput ~faults ~budget ~collect_log:false
                  ~coverage:false case
              in
              (label, p))
            specs
        in
        (case, points))
      (throughput_cases ())
  in
  Printf.printf "%-11s %-16s %12s %14s %14s %12s\n" "harness" "faults"
    "executions" "execs/sec" "steps/sec" "vs disabled";
  print_endline (String.make 84 '-');
  List.iter
    (fun (case, points) ->
      let base_eps =
        match points with
        | (_, p) :: _ when p.p_elapsed > 0. ->
          float_of_int p.p_executions /. p.p_elapsed
        | _ -> 0.
      in
      List.iter
        (fun (label, p) ->
          let eps =
            if p.p_elapsed > 0. then float_of_int p.p_executions /. p.p_elapsed
            else 0.
          and sps =
            if p.p_elapsed > 0. then float_of_int p.p_steps /. p.p_elapsed
            else 0.
          in
          let rel =
            if base_eps > 0. then
              Printf.sprintf "%.1f%%" (100. *. eps /. base_eps)
            else "-"
          in
          Printf.printf "%-11s %-16s %12d %14.1f %14.0f %12s\n" case.tname
            label p.p_executions eps sps rel)
        points)
    rows;
  let oc = open_out "BENCH_fault.json" in
  output_string oc "{\n";
  Printf.fprintf oc "  \"seed\": %Ld,\n" base_seed;
  Printf.fprintf oc "  \"budget\": %d,\n" budget;
  output_string oc "  \"harnesses\": [\n";
  List.iteri
    (fun i (case, points) ->
      Printf.fprintf oc "    {\"name\": %S, \"specs\": [\n" case.tname;
      List.iteri
        (fun j (label, p) ->
          let eps =
            if p.p_elapsed > 0. then float_of_int p.p_executions /. p.p_elapsed
            else 0.
          and sps =
            if p.p_elapsed > 0. then float_of_int p.p_steps /. p.p_elapsed
            else 0.
          in
          Printf.fprintf oc
            "      {\"faults\": %S, \"executions\": %d, \"total_steps\": %d, \
             \"elapsed_s\": %.4f, \"execs_per_sec\": %.1f, \
             \"steps_per_sec\": %.0f}%s\n"
            label p.p_executions p.p_steps p.p_elapsed eps sps
            (if j = List.length points - 1 then "" else ","))
        points;
      Printf.fprintf oc "    ]}%s\n"
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  print_endline "wrote BENCH_fault.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Virtual-time overhead                                               *)
(* ------------------------------------------------------------------ *)

(* The clock's contract mirrors the fault substrate's: with
   [config.clock = None] the whole virtual-time path is one option load
   away from the pre-clock runtime — no draw, no extra allocation — so
   the golden digests stay byte-identical and throughput must match the
   baseline. This section quantifies that, plus the price actually paid
   with the clock armed: on the three case-study harnesses (which never
   arm an entry, so clock-on measures pure plumbing) and on the
   chaintable RPC harness (whose timeouts and delay-latencies all ride
   the clock). Results land in BENCH_time.json. *)
let time_overhead ~budget () =
  Printf.printf
    "== Virtual-time overhead: random strategy, %d executions per mode \
     (seed %Ld) ==\n"
    budget base_seed;
  let measure ~faults ~clock case =
    let factory = Psharp.Random_strategy.factory ~seed:base_seed in
    let total_steps = ref 0 and total_vtime = ref 0 in
    let started = Unix.gettimeofday () in
    for i = 0 to budget - 1 do
      match factory.Psharp.Strategy.fresh ~iteration:i with
      | None -> ()
      | Some strategy ->
        let cfg =
          {
            Runtime.max_steps = case.t_max_steps;
            liveness_grace = None;
            deadlock_is_bug = true;
            collect_log = false;
            coverage = None;
            hb = None;
            faults;
            deadline = None;
            clock;
            scenario = None;
          }
        in
        let result =
          Runtime.execute cfg strategy ~monitors:(case.t_monitors ())
            ~name:"Harness" case.t_harness
        in
        total_steps := !total_steps + result.Runtime.steps;
        total_vtime := !total_vtime + result.Runtime.final_time
    done;
    (!total_steps, !total_vtime, Unix.gettimeofday () -. started)
  in
  let cases =
    List.map (fun c -> (c, Psharp.Fault.none)) (throughput_cases ())
    @ [
        ( {
            tname = "chaintable-rpc";
            t_harness =
              Chaintable.Harness.test
                ~workloads:Chaintable.Workload.retry_case ();
            t_monitors = (fun () -> []);
            t_max_steps = 4_000;
          },
          (* the catalog entry's spec: latency on the backend link drives
             the RPC timeout/retry machinery *)
          Psharp.Fault.make [ Psharp.Fault.Delay ] );
      ]
  in
  let rows =
    List.map
      (fun (case, faults) ->
        let modes =
          [
            ("off", measure ~faults ~clock:None case);
            ( "on",
              measure ~faults ~clock:(Some Psharp.Clock.default_config) case
            );
          ]
        in
        (case, faults, modes))
      cases
  in
  Printf.printf "%-15s %-6s %12s %14s %14s %12s %12s\n" "harness" "clock"
    "executions" "execs/sec" "steps/sec" "avg vtime" "vs off";
  print_endline (String.make 92 '-');
  List.iter
    (fun (case, _, modes) ->
      let base_eps =
        match modes with
        | (_, (_, _, elapsed)) :: _ when elapsed > 0. ->
          float_of_int budget /. elapsed
        | _ -> 0.
      in
      List.iter
        (fun (label, (steps, vtime, elapsed)) ->
          let eps = if elapsed > 0. then float_of_int budget /. elapsed else 0.
          and sps =
            if elapsed > 0. then float_of_int steps /. elapsed else 0.
          in
          let rel =
            if base_eps > 0. then
              Printf.sprintf "%.1f%%" (100. *. eps /. base_eps)
            else "-"
          in
          Printf.printf "%-15s %-6s %12d %14.1f %14.0f %12.1f %12s\n"
            case.tname label budget eps sps
            (float_of_int vtime /. float_of_int (max 1 budget))
            rel)
        modes)
    rows;
  let oc = open_out "BENCH_time.json" in
  output_string oc "{\n";
  Printf.fprintf oc "  \"seed\": %Ld,\n" base_seed;
  Printf.fprintf oc "  \"budget\": %d,\n" budget;
  Printf.fprintf oc "  \"max_time\": %d,\n"
    Psharp.Clock.default_config.Psharp.Clock.max_time;
  output_string oc "  \"harnesses\": [\n";
  List.iteri
    (fun i (case, faults, modes) ->
      Printf.fprintf oc "    {\"name\": %S, \"faults\": %S, \"modes\": [\n"
        case.tname
        (Psharp.Fault.to_string faults);
      List.iteri
        (fun j (label, (steps, vtime, elapsed)) ->
          let eps = if elapsed > 0. then float_of_int budget /. elapsed else 0.
          and sps =
            if elapsed > 0. then float_of_int steps /. elapsed else 0.
          in
          Printf.fprintf oc
            "      {\"clock\": %S, \"executions\": %d, \"total_steps\": %d, \
             \"total_vtime\": %d, \"elapsed_s\": %.4f, \"execs_per_sec\": \
             %.1f, \"steps_per_sec\": %.0f}%s\n"
            label budget steps vtime elapsed eps sps
            (if j = List.length modes - 1 then "" else ","))
        modes;
      Printf.fprintf oc "    ]}%s\n"
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  print_endline "wrote BENCH_time.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Golden determinism digests                                          *)
(* ------------------------------------------------------------------ *)

(* Prints the values test/test_golden.ml pins: per-harness schedule-
   fingerprint digests of a fixed-seed [Engine.explore] (sequential and
   2-worker) plus the MD5 of the first execution's choice trace. Rerun
   this section to regenerate the literals after an *intentional*
   schedule-semantics change. *)
let golden_digests () =
  print_endline "== Golden determinism digests (seed 1, 25 executions) ==";
  List.iter
    (fun case ->
      let explore workers =
        let cfg =
          {
            E.default_config with
            seed = base_seed;
            max_executions = 25;
            max_steps = case.t_max_steps;
            workers;
          }
        in
        let stats = E.explore ~monitors:case.t_monitors cfg case.t_harness in
        match stats.E.coverage with
        | Some cov -> Coverage.schedule_digest cov
        | None -> "no-coverage"
      in
      let trace_md5 =
        let strategy =
          match
            (Psharp.Random_strategy.factory ~seed:base_seed).Psharp.Strategy
              .fresh ~iteration:0
          with
          | Some s -> s
          | None -> assert false
        in
        let cfg =
          {
            Runtime.max_steps = case.t_max_steps;
            liveness_grace = None;
            deadlock_is_bug = true;
            collect_log = false;
            coverage = None;
            hb = None;
            faults = Psharp.Fault.none;
            deadline = None;
            clock = None;
            scenario = None;
          }
        in
        let result =
          Runtime.execute cfg strategy ~monitors:(case.t_monitors ())
            ~name:"Harness" case.t_harness
        in
        Digest.to_hex
          (Digest.string (Psharp.Trace.to_string result.Runtime.choices))
      in
      Printf.printf
        "  %-11s sequential %s  workers2 %s  trace-md5 %s\n" case.tname
        (explore 1) (explore 2) trace_md5)
    (throughput_cases ());
  print_newline ();
  (* Fault-enabled hunts: the winning witness (lowest reporting iteration)
     must carry byte-identical choice traces at every worker count. *)
  print_endline "== Fault-hunt witness digests (seed 1, 50 executions) ==";
  List.iter
    (fun name ->
      let entry = Catalog.Bug_catalog.find name in
      let hunt workers =
        let cfg =
          {
            E.default_config with
            seed = base_seed;
            max_executions = 50;
            max_steps = entry.Catalog.Bug_catalog.max_steps;
            workers;
            faults = entry.Catalog.Bug_catalog.faults;
          }
        in
        match
          E.run ~monitors:entry.Catalog.Bug_catalog.monitors cfg
            entry.Catalog.Bug_catalog.harness
        with
        | E.Bug_found (report, _) ->
          Digest.to_hex
            (Digest.string (Psharp.Trace.to_string report.Error.trace))
        | E.No_bug _ -> "no-bug"
      in
      Printf.printf "  %-34s workers1 %s  workers2 %s\n" name (hunt 1) (hunt 2))
    [ "ExtentNodeCrashLosesBinding"; "ChaintableDuplicateBackendRequest" ];
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  print_endline
    "== Micro-benchmarks: one systematic-testing execution (bechamel OLS) ==";
  let open Bechamel in
  let run_once harness monitors max_steps =
    let counter = ref 0 in
    fun () ->
      incr counter;
      let cfg =
        {
          E.default_config with
          max_executions = 1;
          max_steps;
          seed = Int64.of_int !counter;
        }
      in
      ignore (E.run ~monitors cfg harness)
  in
  let tests =
    [
      Test.make ~name:"replication-fixed"
        (Staged.stage
           (run_once
              (Replication.Harness.test ~bugs:Replication.Bug_flags.none ())
              (fun () -> Replication.Harness.monitors ())
              500));
      Test.make ~name:"vnext-fixed"
        (Staged.stage
           (run_once
              (Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.none
                 ~scenario:Vnext.Testing_driver.Fail_and_repair ())
              (fun () -> Vnext.Testing_driver.monitors ())
              1_000));
      Test.make ~name:"migratingtable-fixed"
        (Staged.stage
           (run_once (Chaintable.Harness.test ()) (fun () -> []) 4_000));
      Test.make ~name:"fabric-fixed"
        (Staged.stage
           (run_once (Fabric.Harness.test ())
              (fun () -> Fabric.Harness.monitors ())
              3_000));
      Test.make ~name:"cscale-fixed"
        (Staged.stage (run_once (Fabric.Chained.test ()) (fun () -> []) 2_000));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 1.0) () in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw = Benchmark.run cfg [ instance ] elt in
          let result = Analyze.one ols instance raw in
          match Analyze.OLS.estimates result with
          | Some [ ns ] ->
            Printf.printf "  %-24s %10.0f ns/execution (%8.0f executions/s)\n"
              (Test.Elt.name elt) ns
              (1e9 /. ns)
          | Some _ | None ->
            Printf.printf "  %-24s (no estimate)\n" (Test.Elt.name elt))
        (Test.elements test))
    tests;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Linearizability-checker overhead                                    *)
(* ------------------------------------------------------------------ *)

(* ISSUE 7 acceptance benchmark, two questions:

   1. What does judging a harness by the generic checker cost end-to-end?
      The chaintable harness runs under both oracles — the paper-style
      per-operation divergence asserts ([`Legacy]) and history recording
      plus the WGL check at the end of the execution ([`Lin]) — at the
      same seed and budget, so the relative throughput is exactly the
      price of the generic oracle. The shardkv harness (lin-only) is
      reported as an absolute.

   2. How does the checker itself scale? Synthetic concurrent KV
      histories (every operation overlaps the next [window-1], so the
      search has real reordering freedom) are checked with the per-key
      partition on and off. Results land in BENCH_lin.json. *)

module History = Psharp.History
module Linearizability = Psharp.Linearizability

(* A valid concurrent history of [ops] operations from [clients] clients
   over [keys] keys: operations take effect in invocation order, but
   responses lag by up to [window], so consecutive operations overlap. *)
let synthetic_history ~keys ~clients ~window ~ops =
  let h = History.create () in
  let state = ref [] in
  let pending = Queue.create () in
  let respond () =
    let id, res = Queue.pop pending in
    History.respond h ~id ~at:0 ~repr:(Shardkv.Model.res_repr res) res
  in
  for i = 0 to ops - 1 do
    let key = Printf.sprintf "k%d" (i mod keys) in
    let op =
      match i mod 3 with
      | 0 -> Shardkv.Model.Put (key, i)
      | 1 -> Shardkv.Model.Add (key, 1)
      | _ -> Shardkv.Model.Get key
    in
    let id =
      History.invoke h
        ~client:(Printf.sprintf "C%d" (i mod clients))
        ~at:0 ~repr:(Shardkv.Model.op_repr op) op
    in
    let next, res = Shardkv.Model.apply !state op in
    state := next;
    Queue.push (id, res) pending;
    if Queue.length pending >= window then respond ()
  done;
  while not (Queue.is_empty pending) do
    respond ()
  done;
  h

let lin_overhead ~budget ~op_counts () =
  Printf.printf
    "== Linearizability overhead: random strategy, %d executions per oracle \
     (seed %Ld) ==\n"
    budget base_seed;
  let oracle_cases =
    [
      ( "chaintable",
        [
          ("legacy", Chaintable.Harness.test ~oracle:`Legacy ());
          ("lin", Chaintable.Harness.test ~oracle:`Lin ());
        ],
        4_000 );
      ("shardkv", [ ("lin", Shardkv.Harness.test ()) ], 5_000);
    ]
  in
  let measure harness max_steps =
    let factory = Psharp.Random_strategy.factory ~seed:base_seed in
    let total_steps = ref 0 in
    let started = Unix.gettimeofday () in
    for i = 0 to budget - 1 do
      match factory.Psharp.Strategy.fresh ~iteration:i with
      | None -> ()
      | Some strategy ->
        let cfg =
          {
            Runtime.max_steps;
            liveness_grace = None;
            deadlock_is_bug = true;
            collect_log = false;
            coverage = None;
            hb = None;
            faults = Psharp.Fault.none;
            deadline = None;
            clock = None;
            scenario = None;
          }
        in
        let result =
          Runtime.execute cfg strategy ~monitors:[] ~name:"Harness" harness
        in
        total_steps := !total_steps + result.Runtime.steps
    done;
    (!total_steps, Unix.gettimeofday () -. started)
  in
  let harness_rows =
    List.map
      (fun (name, oracles, max_steps) ->
        (name, List.map
           (fun (oracle, harness) -> (oracle, measure harness max_steps))
           oracles))
      oracle_cases
  in
  Printf.printf "%-11s %-8s %12s %14s %14s %12s\n" "harness" "oracle"
    "executions" "execs/sec" "steps/sec" "vs first";
  print_endline (String.make 78 '-');
  List.iter
    (fun (name, points) ->
      let base_eps =
        match points with
        | (_, (_, elapsed)) :: _ when elapsed > 0. ->
          float_of_int budget /. elapsed
        | _ -> 0.
      in
      List.iter
        (fun (oracle, (steps, elapsed)) ->
          let eps = if elapsed > 0. then float_of_int budget /. elapsed else 0.
          and sps =
            if elapsed > 0. then float_of_int steps /. elapsed else 0.
          in
          let rel =
            if base_eps > 0. then
              Printf.sprintf "%.1f%%" (100. *. eps /. base_eps)
            else "-"
          in
          Printf.printf "%-11s %-8s %12d %14.1f %14.0f %12s\n" name oracle
            budget eps sps rel)
        points)
    harness_rows;
  (* checker scaling: same history judged with the per-key partition on
     (shardkv's model declares [key_of]) and off *)
  let repeats = 20 in
  let keys = 4 and clients = 3 and window = 4 in
  let time_check model h =
    let started = Unix.gettimeofday () in
    for _ = 1 to repeats do
      match Linearizability.check model h with
      | Linearizability.Linearizable _ -> ()
      | Linearizability.Illegal msg ->
        failwith ("synthetic history rejected: " ^ msg)
    done;
    (Unix.gettimeofday () -. started) /. float_of_int repeats *. 1000.
  in
  let partitioned = Shardkv.Model.lin_model in
  let unpartitioned =
    { partitioned with Psharp.Linearizability.key_of = None }
  in
  Printf.printf
    "\n-- checker cost (%d keys, %d clients, overlap window %d, mean of %d \
     checks) --\n"
    keys clients window repeats;
  Printf.printf "%8s %16s %18s\n" "ops" "partitioned(ms)" "unpartitioned(ms)";
  let checker_rows =
    List.map
      (fun ops ->
        let h = synthetic_history ~keys ~clients ~window ~ops in
        let p = time_check partitioned h in
        let u = time_check unpartitioned h in
        Printf.printf "%8d %16.3f %18.3f\n" ops p u;
        (ops, p, u))
      op_counts
  in
  let oc = open_out "BENCH_lin.json" in
  output_string oc "{\n";
  Printf.fprintf oc "  \"seed\": %Ld,\n" base_seed;
  Printf.fprintf oc "  \"budget\": %d,\n" budget;
  output_string oc "  \"harnesses\": [\n";
  List.iteri
    (fun i (name, points) ->
      Printf.fprintf oc "    {\"name\": %S, \"oracles\": [\n" name;
      List.iteri
        (fun j (oracle, (steps, elapsed)) ->
          let eps = if elapsed > 0. then float_of_int budget /. elapsed else 0.
          and sps =
            if elapsed > 0. then float_of_int steps /. elapsed else 0.
          in
          Printf.fprintf oc
            "      {\"oracle\": %S, \"executions\": %d, \"total_steps\": %d, \
             \"elapsed_s\": %.4f, \"execs_per_sec\": %.1f, \
             \"steps_per_sec\": %.0f}%s\n"
            oracle budget steps elapsed eps sps
            (if j = List.length points - 1 then "" else ","))
        points;
      Printf.fprintf oc "    ]}%s\n"
        (if i = List.length harness_rows - 1 then "" else ","))
    harness_rows;
  output_string oc "  ],\n";
  Printf.fprintf oc
    "  \"checker\": {\"keys\": %d, \"clients\": %d, \"window\": %d, \
     \"repeats\": %d, \"points\": [\n"
    keys clients window repeats;
  List.iteri
    (fun i (ops, p, u) ->
      Printf.fprintf oc
        "    {\"ops\": %d, \"partitioned_ms\": %.4f, \"unpartitioned_ms\": \
         %.4f}%s\n"
        ops p u
        (if i = List.length checker_rows - 1 then "" else ","))
    checker_rows;
  output_string oc "  ]}\n}\n";
  close_out oc;
  print_endline "wrote BENCH_lin.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Happens-before tracking and fuzz feedback                          *)
(* ------------------------------------------------------------------ *)

(* Executions to first bug per paper case study: hunted with random
   scheduling, with plain v1 fuzz and with fuzz v2 (energy schedule +
   fault mutation, hb tracking on so partial-order novelty feeds the
   corpus), plus the distinct canonical partial orders per 1000 executions
   of the no-bug fixed variant under hb tracking (how much of the budget
   lands on semantically new interleavings). Results land in
   BENCH_dpor.json. *)

let reduction_bugs =
  [
    ("vnext", "ExtentNodeLivenessViolation");
    ("chaintable", "QueryAtomicFilterShadowing");
    ("fabric", "FabricPromoteDuringCopy");
  ]

let reduction ~hunt_budget ~explore_budget () =
  Printf.printf
    "== Happens-before tracking: hunt %d / explore %d executions (seed \
     %Ld) ==\n"
    hunt_budget explore_budget base_seed;
  let hunt_execs entry =
    let cfg =
      {
        E.default_config with
        seed = base_seed;
        max_executions = hunt_budget;
        max_steps = entry.Bug_catalog.max_steps;
      }
    in
    match
      E.run ~monitors:entry.Bug_catalog.monitors cfg
        entry.Bug_catalog.harness
    with
    | E.Bug_found (_, stats) -> Some stats.E.executions
    | E.No_bug _ -> None
  in
  let upo_per_1000 entry =
    let cfg =
      {
        E.default_config with
        seed = base_seed;
        max_executions = explore_budget;
        max_steps = entry.Bug_catalog.max_steps;
        collect_coverage = true;
        reduce = E.Hb_track;
      }
    in
    let stats =
      E.explore ~monitors:entry.Bug_catalog.monitors cfg
        entry.Bug_catalog.fixed_harness
    in
    match stats.E.coverage with
    | Some cov when stats.E.executions > 0 ->
      let t = Coverage.totals cov in
      float_of_int t.Coverage.partial_orders
      /. float_of_int stats.E.executions *. 1000.
    | _ -> 0.
  in
  (* v1 fuzz vs fuzz v2: same seed and budget; v2 turns on the energy
     power-schedule and fault-tune mutation, with hb tracking so new
     partial orders feed the corpus (tracking is draw-free, so the two
     runs differ only in what the corpus does with novelty). *)
  let fuzz_execs entry ~v2 =
    let cfg =
      {
        E.default_config with
        strategy = E.Fuzz { corpus_cap = 32 };
        seed = base_seed;
        max_executions = hunt_budget;
        max_steps = entry.Bug_catalog.max_steps;
        faults = entry.Bug_catalog.faults;
        clock = entry.Bug_catalog.clock;
        reduce = (if v2 then E.Hb_track else E.No_reduction);
        fuzz_energy = v2;
        fuzz_mutate_faults = v2;
      }
    in
    match
      E.run ~monitors:entry.Bug_catalog.monitors cfg
        entry.Bug_catalog.harness
    with
    | E.Bug_found (_, stats) -> Some stats.E.executions
    | E.No_bug _ -> None
  in
  let rows =
    List.map
      (fun (harness, bug) ->
        let entry = Bug_catalog.find bug in
        let off = hunt_execs entry in
        let fz = fuzz_execs entry ~v2:false in
        let fz2 = fuzz_execs entry ~v2:true in
        (harness, bug, off, fz, fz2, upo_per_1000 entry))
      reduction_bugs
  in
  let pp_execs = function
    | Some n -> string_of_int n
    | None -> "not-found"
  in
  Printf.printf "%-11s %-36s %12s %12s %12s %11s\n" "harness" "bug"
    "execs random" "execs fuzz" "execs fzv2" "upo/1k trk";
  print_endline (String.make 98 '-');
  List.iter
    (fun (harness, bug, off, fz, fz2, ut) ->
      Printf.printf "%-11s %-36s %12s %12s %12s %11.1f\n" harness bug
        (pp_execs off) (pp_execs fz) (pp_execs fz2) ut)
    rows;
  let improved =
    List.length
      (List.filter
         (fun (_, _, _, fz, fz2, _) ->
           match (fz, fz2) with
           | Some a, Some b -> b <= a
           | None, Some _ -> true
           | _ -> false)
         rows)
  in
  Printf.printf "fuzz v2 <= plain fuzz on %d/%d paper bugs\n" improved
    (List.length rows);
  let oc = open_out "BENCH_dpor.json" in
  output_string oc "{\n";
  Printf.fprintf oc "  \"seed\": %Ld,\n" base_seed;
  Printf.fprintf oc "  \"hunt_budget\": %d,\n" hunt_budget;
  Printf.fprintf oc "  \"explore_budget\": %d,\n" explore_budget;
  output_string oc "  \"harnesses\": [\n";
  let json_execs = function
    | Some n -> string_of_int n
    | None -> "null"
  in
  List.iteri
    (fun i (harness, bug, off, fz, fz2, ut) ->
      Printf.fprintf oc
        "    {\"name\": %S, \"bug\": %S, \
         \"execs_to_first_bug_random\": %s, \
         \"execs_to_first_bug_fuzz\": %s, \
         \"execs_to_first_bug_fuzz_v2\": %s, \
         \"unique_partial_orders_per_1000_track\": %.1f}%s\n"
        harness bug (json_execs off) (json_execs fz) (json_execs fz2) ut
        (if i = List.length rows - 1 then "" else ","))
    rows;
  output_string oc "  ]\n}\n";
  close_out oc;
  print_endline "wrote BENCH_dpor.json";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Scenario-constrained hunts                                          *)
(* ------------------------------------------------------------------ *)

(* Catalog scenarios paired with catalog bugs whose trigger shape they
   encode: the bench compares executions-to-first-bug with the scenario
   wrapper on against the plain fault hunt at the same seed and budget,
   and BENCH_scenario.json pins that constraining never costs executions
   on these pairs. *)
let scenario_cases =
  [
    ("crash-early", "FabricCrashSilentRestart");
    ("dup-backend", "ChaintableDuplicateBackendRequest");
    ("slow-backend", "ChaintableRetryFreshSeq");
    ("lossy-window", "PaxosForgetPromise");
    ("lossy-window", "RaftDoubleVote");
    ("isolate-joiner", "ShardkvStaleRingServe");
    ("crash-mid-handoff", "ShardkvMigrationDoubleApply");
  ]

let scenario_bench ~budget () =
  Printf.printf
    "== Scenario-constrained hunts: random strategy, budget %d, seed 0 ==\n"
    budget;
  let hunt_with entry ~scenario =
    let faults =
      match scenario with
      | None -> entry.Bug_catalog.faults
      | Some s -> Psharp.Scenario.arm s entry.Bug_catalog.faults
    in
    let cfg =
      {
        E.default_config with
        strategy = E.Random;
        seed = 0L;
        max_executions = budget;
        max_steps = entry.Bug_catalog.max_steps;
        faults;
        clock = entry.Bug_catalog.clock;
        scenario;
      }
    in
    let started = Unix.gettimeofday () in
    match
      E.run ~monitors:entry.Bug_catalog.monitors cfg entry.Bug_catalog.harness
    with
    | E.Bug_found (_, stats) ->
      (Some stats.E.executions, Unix.gettimeofday () -. started)
    | E.No_bug _ -> (None, Unix.gettimeofday () -. started)
  in
  let rows =
    List.map
      (fun (sname, bug) ->
        let entry = Bug_catalog.find bug in
        let scen = (Scenario_catalog.find sname).Scenario_catalog.scenario in
        let plain = hunt_with entry ~scenario:None in
        let constrained = hunt_with entry ~scenario:(Some scen) in
        (sname, bug, plain, constrained))
      scenario_cases
  in
  let pp = function Some n -> string_of_int n | None -> "not-found" in
  Printf.printf "%-18s %-34s %12s %12s\n" "scenario" "bug" "plain"
    "scenario";
  print_endline (String.make 80 '-');
  List.iter
    (fun (sname, bug, (p, _), (c, _)) ->
      Printf.printf "%-18s %-34s %12s %12s\n" sname bug (pp p) (pp c))
    rows;
  let no_worse =
    List.length
      (List.filter
         (fun (_, _, (p, _), (c, _)) ->
           match (p, c) with
           | Some a, Some b -> b <= a
           | None, _ -> true
           | Some _, None -> false)
         rows)
  in
  Printf.printf "scenario <= plain on %d/%d pairs\n\n" no_worse
    (List.length rows);
  let oc = open_out "BENCH_scenario.json" in
  let json = function Some n -> string_of_int n | None -> "null" in
  Printf.fprintf oc "{\n  \"seed\": 0,\n  \"budget\": %d,\n  \"pairs\": [\n"
    budget;
  List.iteri
    (fun i (sname, bug, (p, pt), (c, ct)) ->
      Printf.fprintf oc
        "    {\"scenario\": %S, \"bug\": %S, \"execs_to_first_bug_plain\": %s, \"elapsed_plain_s\": %.4f, \"execs_to_first_bug_scenario\": %s, \"elapsed_scenario_s\": %.4f}%s\n"
        sname bug (json p) pt (json c) ct
        (if i = List.length rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc "  ],\n  \"scenario_no_worse_pairs\": %d\n}\n" no_worse;
  close_out oc

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let smoke = List.mem "--smoke" args in
  let sections =
    match List.filter (fun a -> a <> "--full" && a <> "--smoke") args with
    | [] ->
      [
        "table1"; "table2"; "vnext-fix"; "ablation"; "samples";
        "parallel-scaling"; "campaign"; "coverage-growth";
        "exec-throughput"; "fault-overhead"; "time-overhead";
        "lin-overhead"; "scenario"; "micro";
      ]
    | picked -> picked
  in
  let table2_budget = if full then 100_000 else 20_000 in
  let fix_budget = if full then 100_000 else 2_000 in
  let ablation_budget = if full then 100_000 else 20_000 in
  let samples_budget = if full then 100_000 else 10_000 in
  let scaling_budget = if full then 2_000 else if smoke then 150 else 400 in
  let campaign_budget = if full then 10_000 else if smoke then 1_500 else 3_000 in
  let coverage_budgets =
    if full then [ 100; 250; 500; 1_000 ] else [ 25; 50; 100; 200 ]
  in
  let throughput_budget = if full then 2_000 else if smoke then 60 else 400 in
  let lin_op_counts =
    if full then [ 200; 400; 800 ]
    else if smoke then [ 50; 100 ]
    else [ 100; 200; 400 ]
  in
  let reduction_hunt_budget = if full then 100_000 else if smoke then 2_000 else 20_000 in
  let reduction_explore_budget = if full then 2_000 else if smoke then 100 else 500 in
  List.iter
    (fun section ->
      match section with
      | "table1" -> table1 ()
      | "table2" -> table2 ~budget:table2_budget ()
      | "vnext-fix" -> vnext_fix ~budget:fix_budget ()
      | "ablation" -> ablation ~budget:ablation_budget ()
      | "samples" -> samples ~budget:samples_budget ()
      | "parallel-scaling" ->
        parallel_scaling ~budget:scaling_budget ~gate:smoke ()
      | "campaign" -> campaign_bench ~budget:campaign_budget ()
      | "coverage-growth" ->
        coverage_growth ~budgets:coverage_budgets
          ~fuzz_budget:reduction_hunt_budget ()
      | "exec-throughput" -> exec_throughput ~budget:throughput_budget ()
      | "fault-overhead" -> fault_overhead ~budget:throughput_budget ()
      | "time-overhead" -> time_overhead ~budget:throughput_budget ()
      | "lin-overhead" ->
        lin_overhead ~budget:throughput_budget ~op_counts:lin_op_counts ()
      | "golden-digests" -> golden_digests ()
      | "reduction" ->
        reduction ~hunt_budget:reduction_hunt_budget
          ~explore_budget:reduction_explore_budget ()
      | "scenario" ->
        scenario_bench ~budget:(if full then 100_000 else 20_000) ()
      | "micro" -> micro ()
      | other -> Printf.printf "unknown section %s\n" other)
    sections
