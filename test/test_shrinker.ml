(* Trace shrinking: shrunk witnesses are no longer than the original,
   still fail with the same bug kind, and replay exactly. *)

module E = Psharp.Engine
module Error = Psharp.Error
module Trace = Psharp.Trace

let config =
  {
    E.default_config with
    max_executions = 5_000;
    max_steps = 2_000;
    seed = 3L;
  }

let bug1_harness = Replication.Harness.test ~bugs:Replication.Bug_flags.bug1 ()
let monitors () = Replication.Harness.monitors ()

let find_bug () =
  match E.run ~monitors config bug1_harness with
  | E.Bug_found (report, _) -> report
  | E.No_bug _ -> Alcotest.fail "bug 1 not found"

let test_shrinks_and_replays () =
  let original = find_bug () in
  let shrunk = Psharp.Shrinker.shrink ~monitors config original bug1_harness in
  Alcotest.(check bool) "not longer" true
    (Trace.length shrunk.Error.trace <= Trace.length original.Error.trace);
  (match (original.Error.kind, shrunk.Error.kind) with
   | Error.Safety_violation a, Error.Safety_violation b ->
     Alcotest.(check string) "same monitor" a.monitor b.monitor
   | _ -> Alcotest.fail "kind changed");
  let result = E.replay ~monitors config shrunk.Error.trace bug1_harness in
  match result.Psharp.Runtime.bug with
  | Some (Error.Safety_violation _) -> ()
  | _ -> Alcotest.fail "shrunk trace does not replay"

let test_shrink_actually_reduces () =
  (* Not guaranteed in general, but stable for this seed; guards against
     the shrinker silently becoming a no-op. *)
  let original = find_bug () in
  let shrunk = Psharp.Shrinker.shrink ~monitors config original bug1_harness in
  Alcotest.(check bool) "strictly shorter" true
    (Trace.length shrunk.Error.trace < Trace.length original.Error.trace)

let test_shrink_assertion_bug () =
  let harness = Chaintable.Harness.test_for_bug "DeletePrimaryKey" in
  let cfg = { config with max_steps = 4_000 } in
  match E.run cfg harness with
  | E.No_bug _ -> Alcotest.fail "DeletePrimaryKey not found"
  | E.Bug_found (report, _) ->
    let shrunk = Psharp.Shrinker.shrink cfg report harness in
    Alcotest.(check bool) "not longer" true
      (Trace.length shrunk.Error.trace <= Trace.length report.Error.trace);
    let result = E.replay cfg shrunk.Error.trace harness in
    (match result.Psharp.Runtime.bug with
     | Some (Error.Assertion_failure _) -> ()
     | _ -> Alcotest.fail "shrunk trace does not replay")

let test_lenient_divergence_abandons_stale_tape () =
  (* Regression: once the lenient replay strategy diverges it must abandon
     the rest of the recorded tape entirely. If a stale tape were still
     consulted, the recorded [Int 5] (valid for bound 6) would leak into
     the diverged run at step 1 for every seed; at least one seed drawing
     something else proves the tape was dropped. *)
  let recorded = Trace.of_list [ Trace.Int 20; Trace.Int 5 ] in
  let differs seed =
    let s = Psharp.Replay_strategy.lenient ~name:"lenient" ~seed recorded in
    let v0 = s.Psharp.Strategy.next_int ~bound:10 ~step:0 in
    Alcotest.(check bool) "diverged draw in range" true (v0 >= 0 && v0 < 10);
    let v1 = s.Psharp.Strategy.next_int ~bound:6 ~step:1 in
    Alcotest.(check bool) "post-divergence draw in range" true
      (v1 >= 0 && v1 < 6);
    v1 <> 5
  in
  let seeds = List.init 10 (fun i -> Int64.of_int (100 + i)) in
  Alcotest.(check bool) "stale tape abandoned after divergence" true
    (List.exists differs seeds)

let suite =
  [
    Alcotest.test_case "shrinks and replays" `Slow test_shrinks_and_replays;
    Alcotest.test_case "lenient divergence abandons the stale tape" `Quick
      test_lenient_divergence_abandons_stale_tape;
    Alcotest.test_case "actually reduces" `Slow test_shrink_actually_reduces;
    Alcotest.test_case "shrinks an assertion bug" `Slow
      test_shrink_assertion_bug;
  ]
