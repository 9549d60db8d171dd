let () =
  Alcotest.run "psharp-repro"
    [
      ("prng", Test_prng.suite);
      ("trace", Test_trace.suite);
      ("inbox", Test_inbox.suite);
      ("event", Test_event.suite);
      ("monitor", Test_monitor.suite);
      ("runtime", Test_runtime.suite);
      ("served", Test_served.suite);
      ("statemachine", Test_statemachine.suite);
      ("strategies", Test_strategies.suite);
      ("engine", Test_engine.suite);
      ("parallel", Test_parallel.suite);
      ("golden", Test_golden.suite);
      ("coverage", Test_coverage.suite);
      ("core-extra", Test_core_extra.suite);
      ("pushpop-delay", Test_pushpop.suite);
      ("replication", Test_replication.suite);
      ("vnext", Test_vnext.suite);
      ("chaintable", Test_chaintable.suite);
      ("chaintable-harness", Test_chaintable_harness.suite);
      ("fabric", Test_fabric.suite);
      ("consensus", Test_consensus.suite);
      ("shrinker", Test_shrinker.suite);
      ("fault", Test_fault.suite);
      ("clock", Test_clock.suite);
      ("substrate-extra", Test_substrate_extra.suite);
      ("hb", Test_hb.suite);
      ("linearizability", Test_linearizability.suite);
      ("shardkv", Test_shardkv.suite);
      ("witnesses", Test_witnesses.suite);
      ("roundtrip", Test_roundtrip.suite);
      ("scenario", Test_scenario.suite);
      ("campaign", Test_campaign.suite);
      ("alloc", Test_alloc.suite);
    ]
