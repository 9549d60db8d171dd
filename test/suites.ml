(* The whole unit suite as one table, split into two halves that dune
   runs side by side: [Execution] (the PRNG and trace format, the runtime
   and its machines, the strategies, parallel workers, faults, the clock,
   the shrinker and the allocation gate) and [Search] (the engine, golden
   digests, coverage, happens-before, scenarios and campaigns, the case
   studies and their oracles).

   Each executable registers every suite name and leaves the other
   half's suites empty. Alcotest sizes its name column (and so where it
   cuts a long test description) by the longest suite name registered,
   so both halves print every test exactly as a single executable would. *)

type half = Execution | Search

let all =
  [
    ("prng", Execution, Test_prng.suite);
    ("trace", Execution, Test_trace.suite);
    ("inbox", Execution, Test_inbox.suite);
    ("event", Execution, Test_event.suite);
    ("monitor", Execution, Test_monitor.suite);
    ("runtime", Execution, Test_runtime.suite);
    ("served", Execution, Test_served.suite);
    ("statemachine", Execution, Test_statemachine.suite);
    ("strategies", Execution, Test_strategies.suite);
    ("engine", Search, Test_engine.suite);
    ("parallel", Execution, Test_parallel.suite);
    ("golden", Search, Test_golden.suite);
    ("coverage", Search, Test_coverage.suite);
    ("core-extra", Execution, Test_core_extra.suite);
    ("pushpop-delay", Execution, Test_pushpop.suite);
    ("replication", Search, Test_replication.suite);
    ("vnext", Search, Test_vnext.suite);
    ("chaintable", Search, Test_chaintable.suite);
    ("chaintable-harness", Search, Test_chaintable_harness.suite);
    ("fabric", Search, Test_fabric.suite);
    ("consensus", Search, Test_consensus.suite);
    ("shrinker", Execution, Test_shrinker.suite);
    ("fault", Execution, Test_fault.suite);
    ("clock", Execution, Test_clock.suite);
    ("substrate-extra", Search, Test_substrate_extra.suite);
    ("hb", Search, Test_hb.suite);
    ("linearizability", Search, Test_linearizability.suite);
    ("shardkv", Search, Test_shardkv.suite);
    ("witnesses", Search, Test_witnesses.suite);
    ("roundtrip", Search, Test_roundtrip.suite);
    ("scenario", Search, Test_scenario.suite);
    ("campaign", Search, Test_campaign.suite);
    ("alloc", Execution, Test_alloc.suite);
  ]

let run half name =
  Alcotest.run name
    (List.map (fun (suite, h, tests) -> (suite, if h = half then tests else [])) all)
