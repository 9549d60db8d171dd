(* The testing engine: bug search, determinism, replay. *)

module E = Psharp.Engine
module R = Psharp.Runtime
module Event = Psharp.Event
module Error = Psharp.Error
module Trace = Psharp.Trace

type Event.t += Token

(* A minimal racy program: two writers race on a shared cell via a referee
   machine; the referee asserts writer A got there first. Roughly half of
   all schedules violate it. *)
let racy_harness ctx =
  let first = ref None in
  let referee =
    R.create ctx ~name:"Referee" (fun rctx ->
        ignore (R.receive rctx);
        R.assert_here rctx (!first = Some "A") "B overtook A")
  in
  let writer name =
    fun wctx ->
      if !first = None then first := Some name;
      R.send wctx referee Token
  in
  ignore (R.create ctx ~name:"A" (writer "A"));
  ignore (R.create ctx ~name:"B" (writer "B"))

let config =
  { E.default_config with max_executions = 500; max_steps = 200 }

let test_finds_race () =
  match E.run config racy_harness with
  | E.Bug_found (report, stats) ->
    (match report.Error.kind with
     | Error.Assertion_failure _ -> ()
     | k -> Alcotest.failf "wrong kind: %s" (Error.kind_to_string k));
    Alcotest.(check bool) "few executions needed" true (stats.E.executions < 100)
  | E.No_bug _ -> Alcotest.fail "race not found"

let test_seed_determinism () =
  let run () =
    match E.run { config with seed = 99L } racy_harness with
    | E.Bug_found (report, stats) ->
      (Trace.to_string report.Error.trace, stats.E.executions)
    | E.No_bug _ -> Alcotest.fail "expected bug"
  in
  let t1, n1 = run () and t2, n2 = run () in
  Alcotest.(check string) "same trace" t1 t2;
  Alcotest.(check int) "same execution count" n1 n2

let test_replay_reproduces () =
  match E.run config racy_harness with
  | E.Bug_found (report, _) ->
    let result = E.replay config report.Error.trace racy_harness in
    (match result.R.bug with
     | Some (Error.Assertion_failure _) -> ()
     | _ -> Alcotest.fail "replay did not reproduce the bug")
  | E.No_bug _ -> Alcotest.fail "expected bug"

let test_replay_log_collected () =
  match E.run { config with collect_log_on_bug = true } racy_harness with
  | E.Bug_found (report, _) ->
    Alcotest.(check bool) "log non-empty" true (report.Error.log <> [])
  | E.No_bug _ -> Alcotest.fail "expected bug"

let test_ndc_matches_trace () =
  match E.run config racy_harness with
  | E.Bug_found (report, _) as outcome ->
    Alcotest.(check (option int)) "ndc = trace length"
      (Some (Trace.length report.Error.trace))
      (E.ndc outcome)
  | E.No_bug _ -> Alcotest.fail "expected bug"

let test_no_bug_on_correct_program () =
  let harness ctx =
    let echo =
      R.create ctx ~name:"Echo" (fun ectx -> ignore (R.receive ectx))
    in
    R.send ctx echo Token
  in
  match E.run { config with max_executions = 50 } harness with
  | E.No_bug stats -> Alcotest.(check int) "all executions ran" 50 stats.E.executions
  | E.Bug_found (r, _) ->
    Alcotest.failf "unexpected bug: %s" (Error.kind_to_string r.Error.kind)

let test_pct_finds_race () =
  let pct_config = { config with E.strategy = E.Pct { change_points = 2 } } in
  match E.run pct_config racy_harness with
  | E.Bug_found _ -> ()
  | E.No_bug _ -> Alcotest.fail "pct should find the race"

let test_monitors_fresh_per_execution () =
  (* The monitor accumulates one notification per execution; if the engine
     failed to create fresh monitors, the count would exceed 1 and fail. *)
  let harness ctx = R.notify ctx "Fresh" Token in
  let monitors () =
    let count = ref 0 in
    [
      Psharp.Monitor.make ~name:"Fresh" ~initial:"S"
        ~states:[ ("S", Psharp.Monitor.Neutral) ]
        (fun m _ ->
          incr count;
          Psharp.Monitor.assert_ m (!count <= 1) "stale monitor state");
    ]
  in
  match E.run ~monitors { config with max_executions = 20 } harness with
  | E.No_bug _ -> ()
  | E.Bug_found (r, _) ->
    Alcotest.failf "monitor state leaked: %s" (Error.kind_to_string r.Error.kind)

let suite =
  [
    Alcotest.test_case "finds a simple race" `Quick test_finds_race;
    Alcotest.test_case "seeded determinism" `Quick test_seed_determinism;
    Alcotest.test_case "replay reproduces" `Quick test_replay_reproduces;
    Alcotest.test_case "log collected on bug" `Quick test_replay_log_collected;
    Alcotest.test_case "ndc equals trace length" `Quick test_ndc_matches_trace;
    Alcotest.test_case "no false positives" `Quick test_no_bug_on_correct_program;
    Alcotest.test_case "pct finds race" `Quick test_pct_finds_race;
    Alcotest.test_case "monitors fresh per execution" `Quick
      test_monitors_fresh_per_execution;
  ]

let test_survey_collects_distinct_bugs () =
  (* The replication bug-1 harness produces distinct violations (one per
     request the early ack can hit); survey must dedupe and count. *)
  let cfg =
    {
      E.default_config with
      max_executions = 800;
      max_steps = 2_000;
      seed = 0L;
    }
  in
  let found =
    E.survey
      ~monitors:(fun () -> Replication.Harness.monitors ())
      cfg
      (Replication.Harness.test ~bugs:Replication.Bug_flags.bug1 ())
  in
  Alcotest.(check bool) "at least one distinct bug" true (found <> []);
  List.iter
    (fun (report, n) ->
      Alcotest.(check bool) "positive count" true (n > 0);
      Alcotest.(check bool) "has witness" true
        (Trace.length report.Error.trace > 0))
    found

let test_survey_empty_on_correct_system () =
  let cfg = { E.default_config with max_executions = 50; max_steps = 200 } in
  Alcotest.(check int) "no violations" 0
    (List.length (E.survey cfg (fun _ctx -> ())))

let suite =
  suite
  @ [
      Alcotest.test_case "survey collects distinct bugs" `Slow
        test_survey_collects_distinct_bugs;
      Alcotest.test_case "survey empty on correct system" `Quick
        test_survey_empty_on_correct_system;
    ]
