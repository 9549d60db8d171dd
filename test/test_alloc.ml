(* Words-per-step gate: minor-heap words allocated per scheduling step on
   three fixed harnesses, at seed 1 for fixed budgets. The count is a
   deterministic function of the code path, so it repeats exactly from
   run to run; each ceiling is pinned 10% above the value measured when
   it was set, and a change that makes the step path allocate more fails
   here. Each budget runs twice and only the second pass is counted, so
   one-time work (printer registration, registry and name caches) does
   not depend on which tests ran before. Raise a ceiling only for a
   deliberate allocation increase, and say in the change log why the step
   path needs the words. *)

module Runtime = Psharp.Runtime
module Cat = Catalog.Bug_catalog

type gate = {
  g_name : string;
  g_harness : Runtime.ctx -> unit;
  g_monitors : unit -> Psharp.Monitor.t list;
  g_config : Runtime.config;
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
  [
    {
      g_name = "vnext (fixed)";
      g_harness = vnext.Cat.fixed_harness;
      g_monitors = vnext.Cat.monitors;
      g_config = config vnext;
      g_executions = 8;
      g_ceiling = 13.88;  (* measured 12.62 *)
    };
    {
      g_name = "chaintable (fixed, legacy oracle)";
      g_harness = Chaintable.Harness.test ();
      g_monitors = (fun () -> []);
      g_config = { Runtime.default_config with Runtime.max_steps = 4_000 };
      g_executions = 100;
      g_ceiling = 77.33;  (* measured 70.30 *)
    };
    {
      g_name = "shardkv (fixed, crash+delay, clock)";
      g_harness = kv.Cat.fixed_harness;
      g_monitors = kv.Cat.monitors;
      g_config = { (config kv) with Runtime.deadlock_is_bug = false };
      g_executions = 100;
      g_ceiling = 225.98;  (* measured 205.44 *)
    };
  ]

let pass g =
  let factory = Psharp.Random_strategy.factory ~seed:1L in
  let steps = ref 0 in
  let before = Gc.minor_words () in
  for iteration = 0 to g.g_executions - 1 do
    match factory.Psharp.Strategy.fresh ~iteration with
    | None -> Alcotest.fail "random factory returned no strategy"
    | Some strategy ->
      let r =
        Runtime.execute g.g_config strategy ~monitors:(g.g_monitors ())
          ~name:"Harness" g.g_harness
      in
      if r.Runtime.bug <> None then
        Alcotest.failf "%s: fixed harness reported a bug" g.g_name;
      steps := !steps + r.Runtime.steps
  done;
  (Gc.minor_words () -. before) /. float_of_int !steps

let test_words_per_step () =
  let over =
    List.filter_map
      (fun g ->
        ignore (pass g);
        let words = pass g in
        if words > g.g_ceiling then
          Some
            (Printf.sprintf "%s: %.2f minor words per step, ceiling %.2f"
               g.g_name words g.g_ceiling)
        else None)
      (gates ())
  in
  if over <> [] then Alcotest.fail (String.concat "; " over)

let suite =
  [
    Alcotest.test_case "minor words per step under ceiling" `Quick
      test_words_per_step;
  ]
