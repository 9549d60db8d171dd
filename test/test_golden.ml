(* Golden determinism: for a fixed seed the engine must produce exactly
   the schedules (and byte-identical choice traces) it produced when these
   literals were recorded — before the hot-path optimization of the
   runtime (lazy logging, incremental enabled-set maintenance, interned
   coverage, O(1) inboxes). Any change that silently perturbs scheduling
   fails here loudly.

   The literals are regenerated by `bench/main.exe golden-digests`; update
   them only for an *intentional* schedule-semantics change, never to
   quiet this test after a refactor. *)

module E = Psharp.Engine
module Coverage = Psharp.Coverage
module Runtime = Psharp.Runtime

type case = {
  name : string;
  harness : Runtime.ctx -> unit;
  monitors : unit -> Psharp.Monitor.t list;
  max_steps : int;
  (* recorded with seed 1, 25 executions, random strategy *)
  golden_digest : string;
  (* MD5 of the first execution's rendered choice trace *)
  golden_trace_md5 : string;
  (* the same two pins under PCT with two change points (d = 2) *)
  pct_digest : string;
  pct_trace_md5 : string;
}

let cases () =
  [
    {
      name = "vnext";
      harness =
        Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.none
          ~scenario:Vnext.Testing_driver.Fail_and_repair ();
      monitors = (fun () -> Vnext.Testing_driver.monitors ());
      max_steps = 3_000;
      golden_digest = "0b48ed138c32609d";
      golden_trace_md5 = "4b506c88815289198d726594445b39a7";
      pct_digest = "a3ea598ad0677378";
      pct_trace_md5 = "8a8488bc64cf58d0e4aec1b603264801";
    };
    {
      name = "chaintable";
      harness = Chaintable.Harness.test ();
      monitors = (fun () -> []);
      max_steps = 4_000;
      golden_digest = "1aae025392bb0c0c";
      golden_trace_md5 = "fa8775d81012b583001fdaef24cbaf48";
      pct_digest = "48257a81cd694709";
      pct_trace_md5 = "6ef06ae62a358e2c6ab703f8a9acec8d";
    };
    {
      name = "fabric";
      harness = Fabric.Harness.test ();
      monitors = (fun () -> Fabric.Harness.monitors ());
      max_steps = 3_000;
      golden_digest = "3f90e1f24bf3a97a";
      golden_trace_md5 = "8990aeb18464f7ec8f73ce436b10e535";
      pct_digest = "b7d7862aa069ff0c";
      pct_trace_md5 = "1cba91a8038f1d38f4900f30a4270314";
    };
  ]

let seed = 1L
let executions = 25

let digest_of_explore ?scenario ?(strategy = E.Random) case ~workers =
  let cfg =
    {
      E.default_config with
      strategy;
      seed;
      max_executions = executions;
      max_steps = case.max_steps;
      workers;
      scenario;
    }
  in
  let stats = E.explore ~monitors:case.monitors cfg case.harness in
  match stats.E.coverage with
  | Some cov -> Coverage.schedule_digest cov
  | None -> Alcotest.fail "explore returned no coverage"

let test_sequential_digests () =
  List.iter
    (fun case ->
      Alcotest.(check string)
        (case.name ^ " sequential schedule digest")
        case.golden_digest
        (digest_of_explore case ~workers:1))
    (cases ())

let test_parallel_digests () =
  List.iter
    (fun case ->
      Alcotest.(check string)
        (case.name ^ " 2-worker schedule digest")
        case.golden_digest
        (digest_of_explore case ~workers:2))
    (cases ())

let first_trace_md5 factory case =
  let strategy =
    match factory.Psharp.Strategy.fresh ~iteration:0 with
    | Some s -> s
    | None -> Alcotest.fail "factory returned no strategy"
  in
  let cfg =
    {
      Runtime.max_steps = case.max_steps;
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
    Runtime.execute cfg strategy ~monitors:(case.monitors ()) ~name:"Harness"
      case.harness
  in
  Digest.to_hex (Digest.string (Psharp.Trace.to_string result.Runtime.choices))

let test_first_trace_bytes () =
  List.iter
    (fun case ->
      Alcotest.(check string)
        (case.name ^ " first-execution trace md5")
        case.golden_trace_md5
        (first_trace_md5 (Psharp.Random_strategy.factory ~seed) case))
    (cases ())

(* PCT pins: nothing else fixes a PCT schedule, so a change to the
   priority scan or to the order in which it draws priorities and change
   steps fails here. The trace is [E.run]'s iteration 0 under PCT d=2. *)
let test_pct_pins () =
  List.iter
    (fun case ->
      List.iter
        (fun workers ->
          Alcotest.(check string)
            (Printf.sprintf "%s pct %d-worker schedule digest" case.name workers)
            case.pct_digest
            (digest_of_explore ~strategy:(E.Pct { change_points = 2 }) case
               ~workers))
        [ 1; 2 ];
      Alcotest.(check string)
        (case.name ^ " pct first-execution trace md5")
        case.pct_trace_md5
        (first_trace_md5
           (Psharp.Pct_strategy.factory ~seed ~change_points:2
              ~max_steps:case.max_steps ())
           case))
    (cases ())

(* Scenarios must cost nothing when they bind nothing: with a steering
   observer installed but every clause's predicate matching no machine or
   event in the system, the engine must reproduce the pre-scenario golden
   digests byte for byte. This pins two properties at once — a [None]
   scenario config is the identity (the digests above were recorded
   before scenarios existed), and an armed-but-inert observer neither
   consumes nor reorders a single strategy draw. *)
let inert_scenario () =
  match
    Psharp.Scenario.of_string
      "order Zzz_never_sent before Zzz_also_never_sent\n\
       pause Zzz_no_such_machine* from start until step(5)\n"
  with
  | Ok s -> s
  | Error e -> Alcotest.failf "inert scenario did not parse: %s" e

let test_inert_scenario_digests () =
  let scenario = inert_scenario () in
  List.iter
    (fun case ->
      Alcotest.(check string)
        (case.name ^ " digest with an inert scenario armed")
        case.golden_digest
        (digest_of_explore ~scenario case ~workers:1))
    (cases ())

(* Logging must be an observation, never an input: the same seed must
   yield the identical trace with and without [collect_log], and likewise
   with a coverage map or a happens-before recorder attached. *)
let test_observability_does_not_perturb () =
  List.iter
    (fun case ->
      let run ~collect_log ~with_coverage ?hb () =
        let strategy =
          match
            (Psharp.Random_strategy.factory ~seed).Psharp.Strategy.fresh
              ~iteration:0
          with
          | Some s -> s
          | None -> Alcotest.fail "random factory returned no strategy"
        in
        let cfg =
          {
            Runtime.max_steps = case.max_steps;
            liveness_grace = None;
            deadlock_is_bug = true;
            collect_log;
            coverage =
              (if with_coverage then Some (Coverage.create ()) else None);
            hb;
            faults = Psharp.Fault.none;
            deadline = None;
            clock = None;
            scenario = None;
          }
        in
        let result =
          Runtime.execute cfg strategy ~monitors:(case.monitors ())
            ~name:"Harness" case.harness
        in
        Psharp.Trace.to_string result.Runtime.choices
      in
      let plain = run ~collect_log:false ~with_coverage:false () in
      Alcotest.(check bool)
        (case.name ^ " logging does not perturb the schedule")
        true
        (String.equal plain (run ~collect_log:true ~with_coverage:false ()));
      Alcotest.(check bool)
        (case.name ^ " coverage does not perturb the schedule")
        true
        (String.equal plain (run ~collect_log:false ~with_coverage:true ()));
      Alcotest.(check bool)
        (case.name ^ " hb recorder does not perturb the schedule")
        true
        (String.equal plain
           (run ~collect_log:false ~with_coverage:false
              ~hb:(Psharp.Hb.create ()) ())))
    (cases ())

(* Fault-enabled hunts: for a fixed seed, the reported witness — faults
   included, since every injected fault is a recorded choice — must be
   byte-identical at every worker count (the pool crowns the lowest
   reporting iteration deterministically). *)
type fault_case = {
  f_bug : string;  (* catalog entry; hunts run under its own fault spec *)
  f_witness_md5 : string;
}

let fault_cases =
  [
    {
      f_bug = "ExtentNodeCrashLosesBinding";
      f_witness_md5 = "b01e5b414359bd20ae2139042a5d0b36";
    };
    {
      f_bug = "ChaintableDuplicateBackendRequest";
      f_witness_md5 = "de6ba6c7459751f5a0bad3282518e3b7";
    };
  ]

let test_fault_hunt_witness_digests () =
  List.iter
    (fun case ->
      let entry = Catalog.Bug_catalog.find case.f_bug in
      let hunt workers =
        let cfg =
          {
            E.default_config with
            seed;
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
            (Digest.string
               (Psharp.Trace.to_string report.Psharp.Error.trace))
        | E.No_bug _ -> Alcotest.failf "%s not found" case.f_bug
      in
      Alcotest.(check string)
        (case.f_bug ^ " sequential witness md5")
        case.f_witness_md5 (hunt 1);
      Alcotest.(check string)
        (case.f_bug ^ " 2-worker witness md5")
        case.f_witness_md5 (hunt 2))
    fault_cases

(* Virtual time must be deterministic end to end: timestamps are a pure
   function of the schedule, so for a fixed seed a clock-on hunt reports a
   byte-identical witness at every worker count, and two clock-on
   executions produce the identical timestamped log line for line. *)
let retry_entry () = Catalog.Bug_catalog.find "ChaintableRetryFreshSeq"

let test_clock_hunt_worker_invariant () =
  let entry = retry_entry () in
  let hunt workers =
    let cfg =
      {
        E.default_config with
        seed;
        max_executions = 200;
        max_steps = entry.Catalog.Bug_catalog.max_steps;
        workers;
        faults = entry.Catalog.Bug_catalog.faults;
        clock = entry.Catalog.Bug_catalog.clock;
      }
    in
    match
      E.run ~monitors:entry.Catalog.Bug_catalog.monitors cfg
        entry.Catalog.Bug_catalog.harness
    with
    | E.Bug_found (report, _) ->
      Psharp.Trace.to_string report.Psharp.Error.trace
    | E.No_bug _ -> Alcotest.fail "clock-on hunt found nothing"
  in
  Alcotest.(check string) "identical clock-on witness at 1 and 2 workers"
    (hunt 1) (hunt 2)

let test_clock_log_deterministic () =
  let entry = retry_entry () in
  let run () =
    let strategy =
      match
        (Psharp.Random_strategy.factory ~seed).Psharp.Strategy.fresh
          ~iteration:0
      with
      | Some s -> s
      | None -> Alcotest.fail "random factory returned no strategy"
    in
    let cfg =
      {
        Runtime.default_config with
        Runtime.max_steps = entry.Catalog.Bug_catalog.max_steps;
        collect_log = true;
        faults = entry.Catalog.Bug_catalog.faults;
        clock = entry.Catalog.Bug_catalog.clock;
      }
    in
    let result =
      Runtime.execute cfg strategy ~monitors:[] ~name:"Harness"
        entry.Catalog.Bug_catalog.harness
    in
    ( Psharp.Trace.to_string result.Runtime.choices,
      result.Runtime.log,
      result.Runtime.final_time )
  in
  let t1, log1, ft1 = run () in
  let t2, log2, ft2 = run () in
  Alcotest.(check string) "identical clock-on trace" t1 t2;
  Alcotest.(check (list string)) "identical timestamped log" log1 log2;
  Alcotest.(check int) "identical final virtual time" ft1 ft2;
  Alcotest.(check bool) "log lines carry virtual timestamps" true
    (List.exists
       (fun line ->
         String.length line >= 3 && String.sub line 0 3 = "[t=")
       log1)

(* Logged text pin: the MD5 of the [collect_log] log of one fixed-seed
   execution per harness, recorded before log and assertion messages at
   harness call sites became lazy (built only when logging is on or the
   check failed). A message built behind a [Runtime.logging] guard must
   render byte for byte what the eager call rendered. The chaintable
   clock case is iteration 1, the first whose log has an RPC timeout. *)
type log_case = {
  l_name : string;
  l_harness : Runtime.ctx -> unit;
  l_monitors : unit -> Psharp.Monitor.t list;
  l_max_steps : int;
  l_faults : Psharp.Fault.spec;
  l_clock : Psharp.Clock.config option;
  l_iteration : int;
  l_lines : int;
  l_md5 : string;
}

let log_cases () =
  let module Cat = Catalog.Bug_catalog in
  let kv = List.find (fun e -> e.Cat.case_study = Cat.Cs_shardkv) Cat.all in
  let retry = Cat.find "ChaintableRetryFreshSeq" in
  let plain l_name l_harness l_monitors l_max_steps l_lines l_md5 =
    { l_name; l_harness; l_monitors; l_max_steps; l_faults = Psharp.Fault.none;
      l_clock = None; l_iteration = 0; l_lines; l_md5 }
  in
  let of_entry l_name (e : Cat.entry) l_iteration l_lines l_md5 =
    { l_name; l_harness = e.Cat.fixed_harness; l_monitors = e.Cat.monitors;
      l_max_steps = e.Cat.max_steps; l_faults = e.Cat.faults;
      l_clock = e.Cat.clock; l_iteration; l_lines; l_md5 }
  in
  [
    plain "vnext"
      (Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.none
         ~scenario:Vnext.Testing_driver.Fail_and_repair ())
      Vnext.Testing_driver.monitors 3_000 9245
      "8f8cb192e0daf39ff98d1546aef7fa76";
    plain "chaintable" (Chaintable.Harness.test ()) (fun () -> []) 4_000 398
      "33538cde510bdd16697af5590b1133ab";
    plain "fabric" (Fabric.Harness.test ()) Fabric.Harness.monitors 3_000 184
      "45a39f9be5adc994742fb099613a9755";
    of_entry "shardkv" kv 0 113 "58fe32ac31a360abe0c53d0d2e1304fd";
    of_entry "chaintable-clock" retry 1 419 "08d60bb3d32315799190f8df4fdeef79";
  ]

let test_logged_text_pins () =
  List.iter
    (fun c ->
      let strategy =
        match
          (Psharp.Random_strategy.factory ~seed).Psharp.Strategy.fresh
            ~iteration:c.l_iteration
        with
        | Some s -> s
        | None -> Alcotest.fail "random factory returned no strategy"
      in
      let cfg =
        {
          Runtime.default_config with
          Runtime.max_steps = c.l_max_steps;
          collect_log = true;
          faults = c.l_faults;
          clock = c.l_clock;
        }
      in
      let result =
        Runtime.execute cfg strategy ~monitors:(c.l_monitors ())
          ~name:"Harness" c.l_harness
      in
      Alcotest.(check int) (c.l_name ^ " log lines") c.l_lines
        (List.length result.Runtime.log);
      Alcotest.(check string) (c.l_name ^ " log md5") c.l_md5
        (Digest.to_hex
           (Digest.string (String.concat "\n" result.Runtime.log))))
    (log_cases ())

(* Happens-before pins: for each case study's fixed harness under its
   catalog faults (plus chaintable under every message fault, so the
   drop hook fires), the canonical hb fingerprint and the happening feed
   of [hb_executions] fixed-seed executions, folded into one MD5. Recorded
   on the eager fresh-array recorder; the flat, reusable recorder must
   reproduce them byte for byte. *)
type hb_case = {
  h_name : string;
  h_entry : string;  (* catalog entry: fixed harness, monitors, clock *)
  h_faults : Psharp.Fault.spec option;  (* [None]: the entry's own spec *)
  h_md5 : string;
}

let hb_executions = 30

let hb_cases =
  let all_msg =
    Psharp.Fault.make [ Psharp.Fault.Drop; Psharp.Fault.Duplicate; Psharp.Fault.Delay ]
  in
  [
    { h_name = "vnext crash"; h_entry = "ExtentNodeCrashLosesBinding";
      h_faults = None; h_md5 = "cbf194a6ea7a8466274a065c3602dae8" };
    { h_name = "chaintable dup"; h_entry = "ChaintableDuplicateBackendRequest";
      h_faults = None; h_md5 = "8770d82675977590aef531b71ab1f992" };
    { h_name = "chaintable drop/dup/delay";
      h_entry = "ChaintableDuplicateBackendRequest"; h_faults = Some all_msg;
      h_md5 = "25734b4dc41f97cf5fef1cb34cf4465b" };
    { h_name = "chaintable clock delay"; h_entry = "ChaintableRetryFreshSeq";
      h_faults = None; h_md5 = "309c6184c0e4694730586bbfb8d75aa5" };
    { h_name = "fabric crash"; h_entry = "FabricCrashSilentRestart";
      h_faults = None; h_md5 = "6ffc2ef9ad8a9c108ffd81c832db0c68" };
    { h_name = "shardkv crash+delay"; h_entry = "ShardkvCrashLosesShard";
      h_faults = None; h_md5 = "e43d5199ef5a21c342b3a9f6f98b7fa7" };
  ]

let hb_digest c =
  let e = Catalog.Bug_catalog.find c.h_entry in
  let factory = Psharp.Random_strategy.factory ~seed in
  let buf = Buffer.create 4096 in
  for iteration = 0 to hb_executions - 1 do
    match factory.Psharp.Strategy.fresh ~iteration with
    | None -> Alcotest.fail "random factory returned no strategy"
    | Some strategy ->
      let hb = Psharp.Hb.create () in
      let cfg =
        {
          Runtime.default_config with
          Runtime.max_steps = e.Catalog.Bug_catalog.max_steps;
          faults = Option.value c.h_faults ~default:e.Catalog.Bug_catalog.faults;
          clock = e.Catalog.Bug_catalog.clock;
          deadlock_is_bug = false;
          hb = Some hb;
        }
      in
      let r =
        Runtime.execute cfg strategy ~monitors:(e.Catalog.Bug_catalog.monitors ())
          ~name:"Harness" e.Catalog.Bug_catalog.fixed_harness
      in
      Printf.bprintf buf "%d %d %016Lx\n" r.Runtime.steps (Psharp.Hb.steps hb)
        (Psharp.Hb.canonical_fingerprint hb);
      for i = 0 to Psharp.Hb.happenings hb - 1 do
        match Psharp.Hb.happening hb i with
        | Psharp.Hb.Touch { target; actor } -> Printf.bprintf buf "t%d,%d " target actor
        | Psharp.Hb.Notify { actor; monitor } -> Printf.bprintf buf "n%d,%d " actor monitor
      done;
      Buffer.add_char buf '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_hb_pins () =
  List.iter
    (fun c -> Alcotest.(check string) (c.h_name ^ " hb md5") c.h_md5 (hb_digest c))
    hb_cases

(* Coverage pin: the fuzz-observed configuration (fuzz v2 with energy and
   fault mutation, happens-before tracking) over the fixed harnesses of
   two fault-only bugs. [Coverage.to_save] covers every family and count,
   so its MD5 pins the whole accumulator; the schedule digest pins the
   fingerprint multiset on its own. *)
let fuzz_observed_coverage name ~executions =
  let e = Catalog.Bug_catalog.find name in
  let cfg =
    {
      E.default_config with
      strategy = E.Fuzz { corpus_cap = 32 };
      seed = 7L;
      max_executions = executions;
      max_steps = e.Catalog.Bug_catalog.max_steps;
      faults = e.Catalog.Bug_catalog.faults;
      clock = e.Catalog.Bug_catalog.clock;
      reduce = E.Hb_track;
      fuzz_energy = true;
      fuzz_mutate_faults = true;
    }
  in
  match
    E.run ~monitors:e.Catalog.Bug_catalog.monitors cfg
      e.Catalog.Bug_catalog.fixed_harness
  with
  | E.No_bug { E.coverage = Some cov; _ } -> cov
  | E.No_bug _ -> Alcotest.fail "fuzz run collected no coverage"
  | E.Bug_found _ -> Alcotest.failf "%s: bug on the fixed harness" name

let coverage_pins =
  [
    ("ChaintableDuplicateBackendRequest", 300, "f2653eac1bc9348eb5f526461945586b", "2b0434963b57e70d");
    ("FabricCrashSilentRestart", 200, "5734f8326188dc792c03cacd7bfde969", "06320f71cba5d02f");
  ]

let test_coverage_pins () =
  List.iter
    (fun (name, executions, save_md5, digest) ->
      let cov = fuzz_observed_coverage name ~executions in
      Alcotest.(check string) (name ^ " to_save md5") save_md5
        (Digest.to_hex (Digest.string (Coverage.to_save cov)));
      Alcotest.(check string) (name ^ " schedule digest") digest
        (Coverage.schedule_digest cov))
    coverage_pins

let suite =
  [
    Alcotest.test_case "sequential schedule digests" `Quick
      test_sequential_digests;
    Alcotest.test_case "2-worker schedule digests" `Quick
      test_parallel_digests;
    Alcotest.test_case "first-execution trace bytes" `Quick
      test_first_trace_bytes;
    Alcotest.test_case "pct d=2 digests and first trace" `Quick
      test_pct_pins;
    Alcotest.test_case "observability does not perturb schedules" `Quick
      test_observability_does_not_perturb;
    Alcotest.test_case "inert scenario leaves golden digests intact" `Quick
      test_inert_scenario_digests;
    Alcotest.test_case "fault-hunt witness digests" `Quick
      test_fault_hunt_witness_digests;
    Alcotest.test_case "clock-on hunt worker-invariant" `Quick
      test_clock_hunt_worker_invariant;
    Alcotest.test_case "clock-on timestamped log deterministic" `Quick
      test_clock_log_deterministic;
    Alcotest.test_case "logged text pinned per harness" `Quick
      test_logged_text_pins;
    Alcotest.test_case "hb fingerprints pinned per harness" `Quick
      test_hb_pins;
    Alcotest.test_case "fuzz-observed coverage pinned" `Quick
      test_coverage_pins;
  ]
