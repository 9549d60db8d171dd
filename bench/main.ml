(* Benchmark harness: the paper's tables and this reproduction's
   bug-finding experiments, one section each.

     dune exec bench/main.exe -- [SECTION ...] [--smoke | --full]

   With no section, every section in [sections] runs; --smoke and --full
   pick the small and the paper-sized budget of each. A section returns
   rows of one flat record, which [emit] prints as a table and writes to
   BENCH_<section>.json in one schema:

     {"section": S, "budget": N, "cores": C, "rows": [{"column": value, ...}]}

   Per-layer costs (the runtime step path, strategies, coverage and hb,
   faults, the virtual clock and the linearizability checker) are measured
   by perfbench: `python3 perfbench/run.py --workload W --trace 1` with W
   one of table2-hunt, lin-short and fuzz-observed (see perfbench/README.md).
   Its traced runtime.*, fault.*, clock.* and linearizability.* rows
   replaced this program's exec-throughput, fault-overhead, time-overhead,
   lin-overhead and micro sections. *)

module E = Psharp.Engine
module Bug_catalog = Catalog.Bug_catalog
module Scenario_catalog = Catalog.Scenario_catalog
module Error = Psharp.Error
module Coverage = Psharp.Coverage
module Campaign = Psharp.Campaign
module Fuzz_exchange = Psharp.Fuzz_strategy.Exchange

let base_seed = 1L

(* ------------------------------------------------------------------ *)
(* One result format                                                   *)
(* ------------------------------------------------------------------ *)

type value = Int of int | Float of float | Str of string | Bool of bool | Null
type row = (string * value) list

let count = function Some n -> Int n | None -> Null

let cell = function
  | Int n -> string_of_int n
  | Float f -> Printf.sprintf "%.6g" f
  | Str s -> s
  | Bool b -> string_of_bool b
  | Null -> "-"

let json = function
  | Str s ->
    let b = Buffer.create (String.length s + 2) in
    Buffer.add_char b '"';
    String.iter
      (function
        | ('"' | '\\') as c ->
          Buffer.add_char b '\\';
          Buffer.add_char b c
        | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"';
    Buffer.contents b
  | Float f when not (Float.is_finite f) -> "null"
  | Null -> "null"
  | v -> cell v

let members fields =
  String.concat ", "
    (List.map (fun (k, v) -> json (Str k) ^ ": " ^ json v) fields)

(* Consecutive rows with the same columns print as one aligned table. *)
let print_rows rows =
  let print_group = function
    | [] -> ()
    | first :: _ as group ->
      let lines =
        List.map fst first
        :: List.map (fun r -> List.map (fun (_, v) -> cell v) r) group
      in
      let widths =
        List.fold_left
          (List.map2 (fun w c -> max w (String.length c)))
          (List.map (fun _ -> 0) first)
          lines
      in
      (* the last column is not padded *)
      let widths = List.rev (0 :: List.tl (List.rev widths)) in
      List.iter
        (fun line ->
          print_endline
            (String.concat "  "
               (List.map2 (fun w c -> Printf.sprintf "%-*s" w c) widths line)))
        lines
  in
  let _, group =
    List.fold_left
      (fun (cols, group) r ->
        let cols' = List.map fst r in
        if cols' = cols then (cols, r :: group)
        else begin
          print_group (List.rev group);
          (cols', [ r ])
        end)
      ([], []) rows
  in
  print_group (List.rev group)

let emit ~section ~budget (rows : row list) =
  print_rows rows;
  let path = Printf.sprintf "BENCH_%s.json" section in
  let header =
    [
      ("section", Str section);
      ("budget", Int budget);
      ("cores", Int (Domain.recommended_domain_count ()));
    ]
  in
  let oc = open_out path in
  output_string oc
    ("{" ^ members header ^ ", \"rows\": [\n"
    ^ String.concat ",\n" (List.map (fun r -> "  {" ^ members r ^ "}") rows)
    ^ "\n]}\n");
  close_out oc;
  Printf.printf "wrote %s\n\n%!" path

(* ------------------------------------------------------------------ *)
(* Shared runs                                                         *)
(* ------------------------------------------------------------------ *)

let find = Bug_catalog.find

(* The entry's own step bound, faults and clock, at the bench seed. *)
let config e ~budget =
  { (Bug_catalog.config e) with E.seed = base_seed; max_executions = budget }

(* Plain fuzz, or fuzz v2: the energy schedule and fault mutation, with hb
   tracking so new partial orders feed the corpus (tracking is draw-free,
   so the two differ only in what the corpus does with novelty). *)
let fuzz_config ?(v2 = false) e ~budget =
  {
    (config e ~budget) with
    E.strategy = E.Fuzz { corpus_cap = 32 };
    reduce = (if v2 then E.Hb_track else E.No_reduction);
    fuzz_energy = v2;
    fuzz_mutate_faults = v2;
  }

let stats_of = function E.Bug_found (_, s) | E.No_bug s -> s

let execs_to_bug e cfg =
  match E.run ~monitors:e.Bug_catalog.monitors cfg e.Bug_catalog.harness with
  | E.Bug_found (_, s) -> Some s.E.executions
  | E.No_bug _ -> None

let timed f =
  let started = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. started)

(* ------------------------------------------------------------------ *)
(* Table 1                                                             *)
(* ------------------------------------------------------------------ *)

let loc_of_files files =
  let rec lines ic n =
    match In_channel.input_line ic with
    | Some _ -> lines ic (n + 1)
    | None -> n
  in
  let count file =
    if Sys.file_exists file then
      In_channel.with_open_text file (fun ic -> lines ic 0)
    else 0
  in
  List.fold_left (fun acc f -> acc + count f) 0 files

let lib d names = List.map (fun n -> Printf.sprintf "lib/%s/%s.ml" d n) names

(* (system, system files, harness files, bugs modeled, registry machine
   names counted for #M/#ST/#AH, the paper's row) *)
let table1_rows =
  [
    ( "vNext Extent Manager",
      lib "vnext" [ "extent_manager"; "extent_center"; "extent_node_map" ],
      lib "vnext"
        [ "events"; "relay"; "extent_node"; "mgr_machine"; "testing_driver";
          "repair_monitor"; "bug_flags" ],
      1,
      [ "ExtentManager"; "ExtentNode"; "NetworkEngine"; "TestingDriver";
        "Timer"; "RepairMonitor" ],
      "19,775 LoC, 1 bug; harness 684 LoC, 5 M, 11 ST, 17 AH" );
    ( "MigratingTable",
      lib "chaintable"
        [ "migrating_table"; "migrator"; "reference_table"; "table_types";
          "filter"; "filter0"; "internal"; "phase" ],
      lib "chaintable"
        [ "events"; "tables_machine"; "service_machine"; "migrator_machine";
          "remote_backend"; "workload"; "harness"; "spec_check"; "linearize";
          "backend"; "bug_flags" ],
      11,
      [ "Tables"; "Service"; "Migrator"; "MigrationHarness" ],
      "2,267 LoC, 11 bugs; harness 2,275 LoC, 3 M, 5 ST, 10 AH" );
    ( "Fabric User Service",
      lib "fabric" [ "service"; "chained" ],
      lib "fabric"
        [ "cluster_manager"; "replica"; "events"; "monitors"; "client";
          "harness"; "bug_flags" ],
      2,
      [ "FailoverManager"; "Replica"; "FabricClient"; "FabricTestingDriver";
        "FabricSinglePrimary"; "FabricClientLiveness"; "CScaleSource";
        "CScaleTransform"; "CScaleAggregator"; "CScaleControlRelay" ],
      "31,959 LoC, 1 bug; harness 6,534 LoC, 13 M, 21 ST, 87 AH" );
  ]

(* LoC are this reproduction's; the paper's row is shown for shape
   comparison. A few fixed-harness executions first, so the registry sees
   every machine, state and transition. *)
let table1 _budget =
  List.iter
    (fun name ->
      let e = find name in
      ignore
        (E.run ~monitors:e.Bug_catalog.monitors (config e ~budget:3)
           e.Bug_catalog.fixed_harness))
    [ "ExtentNodeLivenessViolation"; "DeletePrimaryKey";
      "FabricPromoteDuringCopy"; "CScaleNullReference";
      "ExampleDuplicateReplicaAck" ];
  let module R = Psharp.Registry in
  List.map
    (fun (system, system_files, harness_files, bugs, machines, paper) ->
      let mine =
        List.filter (fun s -> List.mem s.R.machine machines) (R.machines ())
      in
      let sum f = List.fold_left (fun a s -> a + f s) 0 mine in
      [
        ("system", Str system);
        ("sys_loc", Int (loc_of_files system_files));
        ("bugs", Int bugs);
        ("harness_loc", Int (loc_of_files harness_files));
        ("machines", Int (List.length mine));
        ( "states_transitions",
          Int (sum (fun s -> s.R.states + R.transitions ~machine:s.R.machine))
        );
        ("handlers", Int (sum (fun s -> s.R.handlers)));
        ("paper", Str paper);
      ])
    table1_rows

(* ------------------------------------------------------------------ *)
(* Table 2, samples, ablations and the §3.6 fix                        *)
(* ------------------------------------------------------------------ *)

(* One hunt; when the default harness misses and the entry has a custom
   (pinned-input) test case, that case is hunted too: the paper's (Y). *)
let hunt ?(prefix = "") e ~strategy ~budget =
  let cfg = { (config e ~budget) with E.strategy } in
  let once harness =
    let outcome, t =
      timed (fun () -> E.run ~monitors:e.Bug_catalog.monitors cfg harness)
    in
    match outcome with
    | E.Bug_found (r, s) ->
      Some
        [ Float t; Int (Psharp.Trace.length r.Error.trace); Int s.E.executions ]
    | E.No_bug _ -> None
  in
  let found, cells =
    match once e.Bug_catalog.harness with
    | Some cells -> ("Y", cells)
    | None -> (
      match Option.bind e.Bug_catalog.custom_harness once with
      | Some cells -> ("(Y)", cells)
      | None -> ("x", [ Null; Null; Null ]))
  in
  List.combine
    (List.map (( ^ ) prefix) [ "found"; "time_s"; "ndc"; "execs" ])
    (Str found :: cells)

(* Y = found, (Y) = found only with the custom test case, x = not found;
   #NDC = nondeterministic choices in the witness. *)
let hunt_table entries budget =
  List.map
    (fun e ->
      [
        ("cs", Str (Bug_catalog.case_study_to_string e.Bug_catalog.case_study));
        ("bug", Str e.Bug_catalog.name);
      ]
      @ hunt ~prefix:"random_" e ~strategy:E.Random ~budget
      @ hunt ~prefix:"pct_" e ~strategy:(E.Pct { change_points = 2 }) ~budget)
    entries

let samples =
  List.filter
    (fun e -> e.Bug_catalog.case_study = Bug_catalog.Cs_sample)
    Bug_catalog.all

(* §3.6: the fixed Extent Manager stays clean. *)
let vnext_fix budget =
  let e = find "ExtentNodeLivenessViolation" in
  let outcome, t =
    timed (fun () ->
        E.run ~monitors:e.Bug_catalog.monitors (config e ~budget)
          e.Bug_catalog.fixed_harness)
  in
  let bug =
    match outcome with
    | E.Bug_found (r, _) -> Str (Error.kind_to_string r.Error.kind)
    | E.No_bug _ -> Null
  in
  [
    [
      ("harness", Str "vnext-fixed");
      ("executions", Int (stats_of outcome).E.executions);
      ("bug", bug);
      ("elapsed_s", Float t);
    ];
  ]

(* Scheduler comparison on the example bug, PCT change-point budget on
   QueryStreamedBackUpNewStream, liveness bound on the vNext bug. *)
let ablation budget =
  let row ablation setting e ~strategy ~budget =
    [
      ("ablation", Str ablation);
      ("setting", Str setting);
      ("bug", Str e.Bug_catalog.name);
    ]
    @ hunt e ~strategy ~budget
  in
  let example = find "ExampleDuplicateReplicaAck" in
  let stream = find "QueryStreamedBackUpNewStream" in
  let live = find "ExtentNodeLivenessViolation" in
  List.map
    (fun (name, strategy) -> row "scheduler" name example ~strategy ~budget)
    [
      ("random", E.Random);
      ("pct (d=2)", E.Pct { change_points = 2 });
      ("dfs (depth 60)", E.Dfs { max_depth = 60; int_cap = 2 });
    ]
  @ List.map
      (fun d ->
        row "pct-change-points" (Printf.sprintf "d=%d" d) stream
          ~strategy:(E.Pct { change_points = d }) ~budget)
      [ 1; 2; 4; 8 ]
  @ List.map
      (fun max_steps ->
        row "liveness-bound"
          (Printf.sprintf "max_steps=%d" max_steps)
          { live with Bug_catalog.max_steps }
          ~strategy:E.Random ~budget:(min budget 3_000))
      [ 1_000; 2_000; 3_000 ]

(* ------------------------------------------------------------------ *)
(* Parallel scaling (Worker_pool across OCaml 5 domains)               *)
(* ------------------------------------------------------------------ *)

(* Throughput of the fixed (bug-free) vNext harness at increasing worker
   counts, so every execution runs to completion. With [gate] set, a
   2-worker speedup below the graceful-oversubscription floor fails the
   process: the CI regression gate. *)
let speedup_floor = 0.8

let parallel_scaling ~gate budget =
  let e = find "ExtentNodeLivenessViolation" in
  let runs =
    List.map
      (fun workers ->
        match
          E.run ~monitors:e.Bug_catalog.monitors
            { (config e ~budget) with E.workers }
            e.Bug_catalog.fixed_harness
        with
        | E.No_bug s -> (workers, s)
        | E.Bug_found (r, _) ->
          failwith
            ("parallel-scaling: bug in the fixed harness: "
            ^ Error.kind_to_string r.Error.kind))
      [ 1; 2; 4; 8 ]
  in
  let eps s =
    if s.E.elapsed > 0. then float_of_int s.E.executions /. s.E.elapsed
    else 0.
  in
  let base = eps (snd (List.hd runs)) in
  let speedup s = if base > 0. then eps s /. base else 0. in
  let at2 = speedup (List.assoc 2 runs) in
  if gate then begin
    Printf.printf "gate: 2-worker speedup %.3f, floor %.2f\n" at2 speedup_floor;
    if at2 < speedup_floor then exit 1
  end;
  List.map
    (fun (workers, s) ->
      [
        ("workers", Int workers);
        ("executions", Int s.E.executions);
        ("total_steps", Int s.E.total_steps);
        ("elapsed_s", Float s.E.elapsed);
        ("execs_per_sec", Float (eps s));
        ("speedup", Float (speedup s));
      ])
    runs

(* ------------------------------------------------------------------ *)
(* Persistent campaigns (warm-start bug finding)                       *)
(* ------------------------------------------------------------------ *)

(* A cold uninterrupted fuzz hunt against a two-invocation campaign: a
   short warm invocation whose coverage and corpus are carried into a
   resumed one, both configs built by [Campaign.resume] as `psharp_test
   hunt --campaign` builds them. Warm budgets sit below each bug's cold
   executions-to-first-bug, so the warm invocation ends bug-free and the
   resumed one does the finding. *)
let campaign_cases =
  [
    ("QueryAtomicFilterShadowing", 8);
    ("DeleteNoLeaveTombstonesEtag", 16);
    ("ChaintableRetryFreshSeq", 7);
  ]

let campaign budget =
  List.map
    (fun (name, warm_budget) ->
      let e = find name in
      let base = fuzz_config e ~budget in
      let cold = execs_to_bug e base in
      let fresh = Campaign.create ~harness:name ~seed:base.E.seed in
      let warm_config =
        Campaign.resume fresh { base with max_executions = warm_budget }
      in
      let warm =
        stats_of
          (E.run ~monitors:e.Bug_catalog.monitors warm_config
             e.Bug_catalog.harness)
      in
      let corpus =
        Fuzz_exchange.snapshot (Option.get warm_config.E.resume.exchange)
      in
      let c =
        Campaign.advance fresh ~executions:warm.E.executions
          ~coverage:(Option.get warm.E.coverage) ~corpus
      in
      let resumed = execs_to_bug e (Campaign.resume c base) in
      [
        ("bug", Str name);
        ("warm_budget", Int warm_budget);
        ("corpus", Int (List.length corpus));
        ("cold_execs", count cold);
        ("resumed_execs", count resumed);
      ])
    campaign_cases

(* ------------------------------------------------------------------ *)
(* Coverage growth and fuzz v2                                         *)
(* ------------------------------------------------------------------ *)

(* Coverage reached by random, PCT and feedback-directed fuzz at budgets
   up to [budget]. [E.explore] never stops at a bug, so no strategy is
   charged fewer executions for tripping one early. *)
let growth_rows e budget =
  List.concat_map
    (fun (name, strategy) ->
      List.map
        (fun b ->
          let stats =
            E.explore ~monitors:e.Bug_catalog.monitors
              { (config e ~budget:b) with E.strategy }
              e.Bug_catalog.harness
          in
          let t = Coverage.totals (Option.get stats.E.coverage) in
          [
            ("bug", Str e.Bug_catalog.name);
            ("strategy", Str name);
            ("budget", Int b);
            ("machine_states", Int t.Coverage.machine_states);
            ("event_types", Int t.Coverage.event_types);
            ("transition_triples", Int t.Coverage.transition_triples);
            ("branch_outcomes", Int t.Coverage.branch_outcomes);
            ("unique_schedules", Int t.Coverage.unique_schedules);
            ("executions", Int t.Coverage.executions);
          ])
        [ budget / 8; budget / 4; budget / 2; budget ])
    [
      ("random", E.Random);
      ("pct2", E.Pct { change_points = 2 });
      ("fuzz", E.Fuzz { corpus_cap = 32 });
    ]

(* Plain fuzz against fuzz v2: on the fault-only bugs, which fire only
   under the entry's injected faults, so the fault-tune operator has a
   real surface, and on the fault-free vNext liveness bug, whose witness
   needs a long random tail that no mutation operator shortens. *)
let fuzz_v2_row name ~budget =
  let e = find name in
  [
    ("bug", Str name);
    ("fuzz_execs", count (execs_to_bug e (fuzz_config e ~budget)));
    ("fuzz_v2_execs", count (execs_to_bug e (fuzz_config ~v2:true e ~budget)));
  ]

(* Replaying a buggy schedule reproduces its coverage fingerprint: the
   fingerprint is a pure function of the choice trace. *)
let fingerprint_replay_row e =
  let cfg = { (config e ~budget:20_000) with coverage_mode = E.Collect } in
  let monitors = e.Bug_catalog.monitors in
  match E.run ~monitors cfg e.Bug_catalog.harness with
  | E.No_bug _ -> [ ("bug", Str e.Bug_catalog.name); ("identical", Null) ]
  | E.Bug_found (r, _) ->
    let recorded = Coverage.fingerprint r.Error.trace in
    let replayed =
      Coverage.fingerprint
        (E.replay ~monitors cfg r.Error.trace e.Bug_catalog.harness)
          .Psharp.Runtime.choices
    in
    [
      ("bug", Str e.Bug_catalog.name);
      ("recorded", Str (Printf.sprintf "0x%Lx" recorded));
      ("replayed", Str (Printf.sprintf "0x%Lx" replayed));
      ("identical", Bool (Int64.equal recorded replayed));
    ]

(* [budget] is the largest coverage budget; fuzz hunts get 100x that. *)
let coverage_growth budget =
  let live = find "ExtentNodeLivenessViolation" in
  let hunt_budget = 100 * budget in
  growth_rows live budget
  @ growth_rows (find "QueryStreamedLock") budget
  @ List.map
      (fuzz_v2_row ~budget:hunt_budget)
      [ "ExtentNodeCrashLosesBinding"; "ChaintableDuplicateBackendRequest";
        "FabricCrashSilentRestart"; "ExtentNodeLivenessViolation" ]
  @ [ fingerprint_replay_row live ]

(* ------------------------------------------------------------------ *)
(* Happens-before tracking and fuzz feedback                           *)
(* ------------------------------------------------------------------ *)

(* Executions to first bug per paper case study under random, plain fuzz
   and fuzz v2, plus the distinct canonical partial orders per 1,000
   executions of the fixed variant under hb tracking, explored for a
   fortieth of the hunt budget. *)
let reduction budget =
  let explore_budget = budget / 40 in
  List.map
    (fun (harness, bug) ->
      let e = find bug in
      let stats =
        E.explore ~monitors:e.Bug_catalog.monitors
          {
            (config e ~budget:explore_budget) with
            reduce = E.Hb_track;
          }
          e.Bug_catalog.fixed_harness
      in
      let upo =
        match stats.E.coverage with
        | Some cov when stats.E.executions > 0 ->
          float_of_int (Coverage.totals cov).Coverage.partial_orders
          /. float_of_int stats.E.executions *. 1000.
        | _ -> 0.
      in
      [
        ("harness", Str harness);
        ("bug", Str bug);
        ("random_execs", count (execs_to_bug e (config e ~budget)));
        ("fuzz_execs", count (execs_to_bug e (fuzz_config e ~budget)));
        ( "fuzz_v2_execs",
          count (execs_to_bug e (fuzz_config ~v2:true e ~budget)) );
        ("explore_budget", Int explore_budget);
        ("partial_orders_per_1k", Float upo);
      ])
    [
      ("vnext", "ExtentNodeLivenessViolation");
      ("chaintable", "QueryAtomicFilterShadowing");
      ("fabric", "FabricPromoteDuringCopy");
    ]

(* ------------------------------------------------------------------ *)
(* Scenario-constrained hunts                                          *)
(* ------------------------------------------------------------------ *)

(* Catalog scenarios paired with bugs whose trigger shape they encode:
   executions to first bug with the scenario steering against the plain
   hunt, random strategy at seed 0. *)
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

let scenario budget =
  List.map
    (fun (name, bug) ->
      let e = find bug in
      let scen = (Scenario_catalog.find name).Scenario_catalog.scenario in
      let plain = { (config e ~budget) with E.seed = 0L } in
      let p, pt = timed (fun () -> execs_to_bug e plain) in
      let c, ct =
        timed (fun () ->
            execs_to_bug e
              {
                plain with
                faults = Psharp.Scenario.arm scen e.Bug_catalog.faults;
                scenario = Some scen;
              })
      in
      [
        ("scenario", Str name);
        ("bug", Str bug);
        ("seed", Int 0);
        ("plain_execs", count p);
        ("plain_s", Float pt);
        ("scenario_execs", count c);
        ("scenario_s", Float ct);
      ])
    scenario_cases

(* ------------------------------------------------------------------ *)
(* Golden determinism digests                                          *)
(* ------------------------------------------------------------------ *)

(* The values test/test_golden.ml pins: per fixed harness and strategy
   (random, and PCT with two change points), the schedule digest of a
   [budget]-execution [E.explore] (sequential and 2-worker) and the MD5
   of the first execution's choice trace; per fault-only bug, the MD5 of
   the witness of a 2*[budget]-execution hunt at 1 and 2 workers. Rerun
   this section to regenerate the literals after an intentional
   schedule-semantics change. *)
let golden_digests budget =
  let md5 trace =
    Digest.to_hex (Digest.string (Psharp.Trace.to_string trace))
  in
  let fixed strategy (label, bug) =
    let e = find bug in
    let cfg = { (config e ~budget) with E.strategy } in
    let explore workers =
      let stats =
        E.explore ~monitors:e.Bug_catalog.monitors { cfg with E.workers }
          e.Bug_catalog.fixed_harness
      in
      Str (Coverage.schedule_digest (Option.get stats.E.coverage))
    in
    let strategy_name, factory =
      match strategy with
      | E.Pct { change_points } ->
        ( "pct",
          Psharp.Pct_strategy.factory ~seed:base_seed ~change_points
            ~max_steps:cfg.E.max_steps () )
      | _ -> ("random", Psharp.Random_strategy.factory ~seed:base_seed)
    in
    let first = Option.get (factory.Psharp.Strategy.fresh ~iteration:0) in
    let result =
      Psharp.Runtime.execute
        (E.runtime_config cfg ~collect_log:false)
        first
        ~monitors:(e.Bug_catalog.monitors ())
        ~name:"Harness" e.Bug_catalog.fixed_harness
    in
    [
      ("harness", Str label);
      ("strategy", Str strategy_name);
      ("sequential", explore 1);
      ("workers2", explore 2);
      ("trace_md5", Str (md5 result.Psharp.Runtime.choices));
    ]
  in
  let fault_hunt bug =
    let e = find bug in
    let witness workers =
      match
        E.run ~monitors:e.Bug_catalog.monitors
          { (config e ~budget:(2 * budget)) with E.workers }
          e.Bug_catalog.harness
      with
      | E.Bug_found (r, _) -> Str (md5 r.Error.trace)
      | E.No_bug _ -> Null
    in
    [ ("bug", Str bug); ("workers1", witness 1); ("workers2", witness 2) ]
  in
  let harnesses =
    [
      ("vnext", "ExtentNodeLivenessViolation");
      ("chaintable", "DeletePrimaryKey");
      ("fabric", "FabricPromoteDuringCopy");
    ]
  in
  List.map (fixed E.Random) harnesses
  @ List.map (fixed (E.Pct { change_points = 2 })) harnesses
  @ List.map fault_hunt
      [ "ExtentNodeCrashLosesBinding"; "ChaintableDuplicateBackendRequest" ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

(* (name, (smoke, default, full) budget, run), in default run order. *)
let sections ~smoke =
  [
    ("table1", (0, 0, 0), table1);
    ("table2", (2_000, 20_000, 100_000), hunt_table Bug_catalog.table2);
    ("vnext-fix", (200, 2_000, 100_000), vnext_fix);
    ("ablation", (2_000, 20_000, 100_000), ablation);
    ("samples", (1_000, 10_000, 100_000), hunt_table samples);
    ("parallel-scaling", (150, 400, 2_000), parallel_scaling ~gate:smoke);
    ("campaign", (1_500, 3_000, 10_000), campaign);
    ("coverage-growth", (20, 200, 1_000), coverage_growth);
    ("reduction", (2_000, 20_000, 100_000), reduction);
    ("scenario", (2_000, 20_000, 100_000), scenario);
    ("golden-digests", (25, 25, 25), golden_digests);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let smoke = List.mem "--smoke" args and full = List.mem "--full" args in
  let table = sections ~smoke in
  let names = List.map (fun (name, _, _) -> name) table in
  let picked = List.filter (fun a -> a <> "--smoke" && a <> "--full") args in
  match List.filter (fun a -> not (List.mem a names)) picked with
  | _ :: _ as unknown ->
    Printf.eprintf
      "unknown section or flag: %s\n\
       usage: main.exe [SECTION ...] [--smoke | --full]\n\
       sections: %s\n"
      (String.concat " " unknown) (String.concat ", " names);
    exit 2
  | [] ->
    List.iter
      (fun name ->
        let _, (s, d, f), run = List.find (fun (n, _, _) -> n = name) table in
        let budget = if full then f else if smoke then s else d in
        Printf.printf "== %s (budget %d) ==\n%!" name budget;
        emit ~section:name ~budget (run budget))
      (if picked = [] then names else picked)
