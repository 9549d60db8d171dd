(* Words-per-step gate: minor-heap words allocated per scheduling step on
   fixed harnesses, at fixed seeds for fixed budgets. The count is a
   deterministic function of the code path, so it repeats exactly from
   run to run; each ceiling is pinned 10% above the value measured when
   it was set, and a change that makes the step path allocate more fails
   here. Each budget runs twice and only the second pass is counted, so
   one-time work (printer registration, registry and name caches) does
   not depend on which tests ran before. Raise a ceiling only for a
   deliberate allocation increase, and say in the change log why the step
   path needs the words.

   The plain rows run [Runtime.execute] with no observer; the observed
   rows run [Engine.run] under fuzz v2 with happens-before tracking (the
   configuration of the fuzz-observed benchmark), so they count coverage
   and hb recording, both fingerprints, novelty and fuzz feedback too. *)

module Runtime = Psharp.Runtime
module Cat = Catalog.Bug_catalog

module E = Psharp.Engine

type run =
  | Plain of Runtime.config  (* Runtime.execute, random strategy, seed 1 *)
  | Plain_pct of Runtime.config
      (* Runtime.execute, PCT with 2 change points, seed 1. PCT reports
         liveness violations on the fixed vnext harness (an unfair
         schedule, not a bug: ROADMAP item 1), so this run counts those
         executions' steps instead of failing on them. *)
  | Observed of E.config  (* one Engine.run *)

type gate = {
  g_name : string;
  g_harness : Runtime.ctx -> unit;
  g_monitors : unit -> Psharp.Monitor.t list;
  g_run : run;
  g_executions : int;
  g_ceiling : float;  (* minor words per step *)
}

let gates () =
  let vnext = Cat.find "ExtentNodeLivenessViolation" in
  let kv = List.find (fun e -> e.Cat.case_study = Cat.Cs_shardkv) Cat.all in
  let config (e : Cat.entry) =
    {
      Runtime.default_config with
      Runtime.max_steps = e.Cat.max_steps;
      faults = e.Cat.faults;
      clock = e.Cat.clock;
    }
  in
  let observed g_name (e : Cat.entry) g_executions g_ceiling =
    {
      g_name;
      g_harness = e.Cat.fixed_harness;
      g_monitors = e.Cat.monitors;
      g_run =
        Observed
          {
            E.default_config with
            E.strategy = E.Fuzz { corpus_cap = 32 };
            seed = 7L;
            max_executions = g_executions;
            max_steps = e.Cat.max_steps;
            faults = e.Cat.faults;
            reduce = E.Hb_track;
            fuzz_energy = true;
            fuzz_mutate_faults = true;
          };
      g_executions;
      g_ceiling;
    }
  in
  [
    {
      g_name = "vnext (fixed)";
      g_harness = vnext.Cat.fixed_harness;
      g_monitors = vnext.Cat.monitors;
      g_run = Plain (config vnext);
      g_executions = 8;
      g_ceiling = 9.43;  (* measured 8.57 *)
    };
    {
      g_name = "vnext (fixed, PCT d=2)";
      g_harness = vnext.Cat.fixed_harness;
      g_monitors = vnext.Cat.monitors;
      g_run = Plain_pct (config vnext);
      g_executions = 8;
      g_ceiling = 4.58;  (* measured 4.16 *)
    };
    {
      g_name = "chaintable (fixed, legacy oracle)";
      g_harness = Chaintable.Harness.test ();
      g_monitors = (fun () -> []);
      g_run = Plain { Runtime.default_config with Runtime.max_steps = 4_000 };
      g_executions = 100;
      g_ceiling = 55.69;  (* measured 50.63 *)
    };
    {
      g_name = "chaintable (fixed, Lin oracle)";
      g_harness = Chaintable.Harness.test ~oracle:`Lin ();
      g_monitors = (fun () -> []);
      g_run = Plain { Runtime.default_config with Runtime.max_steps = 4_000 };
      g_executions = 100;
      g_ceiling = 65.52;  (* measured 59.56 *)
    };
    {
      g_name = "shardkv (fixed, crash+delay, clock)";
      g_harness = kv.Cat.fixed_harness;
      g_monitors = kv.Cat.monitors;
      g_run = Plain { (config kv) with Runtime.deadlock_is_bug = false };
      g_executions = 100;
      g_ceiling = 101.81;  (* measured 92.55 *)
    };
    observed "chaintable (fixed, fuzz v2 + hb)"
      (Cat.find "ChaintableDuplicateBackendRequest") 300 59.35 (* measured 53.95 *);
    observed "fabric (fixed, fuzz v2 + hb)" (Cat.find "FabricCrashSilentRestart")
      300 44.57 (* measured 40.52 *);
  ]

let plain_steps g config (factory : Psharp.Strategy.factory) ~clean =
  let steps = ref 0 in
  for iteration = 0 to g.g_executions - 1 do
    match factory.Psharp.Strategy.fresh ~iteration with
    | None -> Alcotest.fail "factory returned no strategy"
    | Some strategy ->
      let r =
        Runtime.execute config strategy ~monitors:(g.g_monitors ())
          ~name:"Harness" g.g_harness
      in
      if not (clean r.Runtime.bug) then
        Alcotest.failf "%s: fixed harness reported a bug" g.g_name;
      steps := !steps + r.Runtime.steps
  done;
  !steps

let steps_of_run g =
  match g.g_run with
  | Plain config ->
    plain_steps g config (Psharp.Random_strategy.factory ~seed:1L)
      ~clean:Option.is_none
  | Plain_pct config ->
    plain_steps g config
      (Psharp.Pct_strategy.factory ~seed:1L ~change_points:2
         ~max_steps:config.Runtime.max_steps ())
      ~clean:(function
        | None | Some (Psharp.Error.Liveness_violation _) -> true
        | Some _ -> false)
  | Observed config -> (
    match E.run ~monitors:g.g_monitors config g.g_harness with
    | E.No_bug st -> st.E.total_steps
    | E.Bug_found _ -> Alcotest.failf "%s: fixed harness reported a bug" g.g_name)

let pass g =
  let before = Gc.minor_words () in
  let steps = steps_of_run g in
  (Gc.minor_words () -. before) /. float_of_int steps

(* Every row's reading is printed, passing or not, so the gate's log shows
   how much headroom each ceiling has. *)
let test_words_per_step () =
  let over =
    List.filter_map
      (fun g ->
        ignore (pass g);
        let words = pass g in
        let row =
          Printf.sprintf "%s: %.2f minor words per step, ceiling %.2f"
            g.g_name words g.g_ceiling
        in
        Printf.printf "%s\n%!" row;
        if words > g.g_ceiling then Some row else None)
      (gates ())
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

let suite =
  [
    Alcotest.test_case "minor words per step under ceiling" `Quick
      test_words_per_step;
  ]
