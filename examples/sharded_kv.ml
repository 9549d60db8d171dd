(* Sharded KV quickstart (ISSUE 7): the first post-paper workload, judged
   end to end by the generic linearizability checker instead of bespoke
   spec assertions.

   1. Place shards on a consistent-hash ring and watch a node join move
      some shards and leave others put.
   2. Record a tiny client history by hand and ask the checker about it.
   3. Hunt a seeded rebalancing bug under crash+delay faults on the
      virtual clock; the violation the engine reports *is* the checker's
      verdict on the recorded history.

     dune exec examples/sharded_kv.exe *)

let () =
  let open Psharp in
  (* 1. Consistent hashing: a join is a rebalance, not a reshuffle. *)
  Format.printf "=== ring placement across a join ===@.";
  let before = Shardkv.Ring.create ~n_shards:4 ~replicas:2 [ "N0"; "N1" ] in
  let after = Shardkv.Ring.add_node before "N2" in
  Format.printf "before: %s@.after:  %s@.moved shards: [%s]@.@."
    (Shardkv.Ring.to_string before)
    (Shardkv.Ring.to_string after)
    (String.concat "; "
       (List.map string_of_int (Shardkv.Ring.moved_shards ~before ~after)));

  (* 2. The checker on a hand-written history: a write whose effect is
     seen by one read and then un-seen by a later one has no explaining
     order. *)
  Format.printf "=== the checker on a hand-written history ===@.";
  let h = History.create () in
  let invoke client op =
    History.invoke h ~client ~at:0 ~repr:(lazy (Shardkv.Model.op_repr op)) op
  in
  let respond id res =
    History.respond h ~id ~at:0 ~repr:(lazy (Shardkv.Model.res_repr res)) res
  in
  let w = invoke "C0" (Shardkv.Model.Put ("k", 1)) in
  let r1 = invoke "C1" (Shardkv.Model.Get "k") in
  respond r1 (Shardkv.Model.Got (Some 1));
  let r2 = invoke "C1" (Shardkv.Model.Get "k") in
  respond r2 (Shardkv.Model.Got None);
  respond w Shardkv.Model.Put_ok;
  Format.printf "%s@.verdict: %s@.@."
    (String.trim (History.to_string h))
    (Linearizability.verdict_to_string
       (Linearizability.check Shardkv.Model.lin_model h));

  (* 3. Systematic testing: the stale-ring routing bug. The harness
     records every client operation into a history and the engine's
     assertion failure carries the checker's violation string. *)
  Format.printf "=== hunting ShardkvStaleRingServe under crash+delay ===@.";
  let entry = Catalog.Bug_catalog.find "ShardkvStaleRingServe" in
  let config =
    {
      Engine.default_config with
      max_executions = 2_000;
      max_steps = entry.Catalog.Bug_catalog.max_steps;
      faults = entry.Catalog.Bug_catalog.faults;
      clock = entry.Catalog.Bug_catalog.clock;
      seed = 1L;
    }
  in
  (match Engine.run config entry.Catalog.Bug_catalog.harness with
   | Engine.Bug_found (report, stats) ->
     Format.printf "FOUND after %d executions (%.2fs, #NDC %d)@.  %s@." stats.Engine.executions
       stats.Engine.elapsed
       (Trace.length report.Error.trace)
       (Error.kind_to_string report.Error.kind)
   | Engine.No_bug stats ->
     Format.printf "not found in %d executions@." stats.Engine.executions);

  (* ...and the fixed protocol survives the same faults. *)
  match Engine.run config entry.Catalog.Bug_catalog.fixed_harness with
  | Engine.No_bug stats ->
    Format.printf "fixed protocol: clean over %d executions@."
      stats.Engine.executions
  | Engine.Bug_found (report, _) ->
    Format.printf "fixed protocol UNEXPECTEDLY flagged: %s@."
      (Error.kind_to_string report.Error.kind)
