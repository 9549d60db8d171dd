(* Paxos and Raft sample protocols: seeded bugs are found, correct
   protocols survive systematic exploration. *)

module E = Psharp.Engine
module Error = Psharp.Error

let paxos_config =
  {
    E.default_config with
    max_executions = 20_000;
    max_steps = 2_000;
    seed = 1L;
  }

let raft_config = { paxos_config with max_executions = 3_000; max_steps = 1_500 }

let expect_agreement_violation outcome =
  match outcome with
  | E.Bug_found (report, _) -> begin
    match report.Error.kind with
    | Error.Safety_violation { monitor = "PaxosAgreement"; _ } -> ()
    | k -> Alcotest.failf "wrong kind: %s" (Error.kind_to_string k)
  end
  | E.No_bug _ -> Alcotest.fail "agreement violation not found"

let test_paxos_forget_promise () =
  expect_agreement_violation
    (E.run
       ~monitors:(fun () -> Paxos.monitors ())
       paxos_config
       (Paxos.test ~bugs:Paxos.bug_forget_promise ()))

let test_paxos_choose_own_value () =
  expect_agreement_violation
    (E.run
       ~monitors:(fun () -> Paxos.monitors ())
       paxos_config
       (Paxos.test ~bugs:Paxos.bug_choose_own_value ()))

(* The full instance under random, then a tiny one (single proposer, one
   ballot) explored far deeper under random and under PCT. *)
let test_paxos_correct_clean () =
  let tiny = Paxos.test ~n_proposers:1 ~max_ballots:1 () in
  List.iter
    (fun (label, config, harness) ->
      match E.run ~monitors:(fun () -> Paxos.monitors ()) config harness with
      | E.No_bug _ -> ()
      | E.Bug_found (r, _) ->
        Alcotest.failf "false positive (%s): %s" label
          (Error.kind_to_string r.Error.kind))
    [
      ("random", { paxos_config with max_executions = 3_000 }, Paxos.test ());
      ("tiny, random", { paxos_config with max_executions = 30_000 }, tiny);
      ( "tiny, pct d=2",
        {
          paxos_config with
          strategy = E.Pct { change_points = 2 };
          max_executions = 30_000;
        },
        tiny );
    ]

let test_raft_double_vote () =
  match
    E.run
      ~monitors:(fun () -> Raft.monitors ())
      raft_config
      (Raft.test ~bugs:Raft.bug_double_vote ())
  with
  | E.Bug_found (report, _) -> begin
    match report.Error.kind with
    | Error.Safety_violation { monitor = "RaftElectionSafety"; _ } -> ()
    | k -> Alcotest.failf "wrong kind: %s" (Error.kind_to_string k)
  end
  | E.No_bug _ -> Alcotest.fail "two-leaders violation not found"

let test_raft_stale_leader () =
  match
    E.run
      ~monitors:(fun () -> Raft.monitors ())
      { raft_config with max_executions = 5_000 }
      (Raft.test ~bugs:Raft.bug_stale_leader_election ())
  with
  | E.Bug_found (report, _) -> begin
    match report.Error.kind with
    | Error.Safety_violation { monitor = "RaftStateMachineSafety"; _ } -> ()
    | k -> Alcotest.failf "wrong kind: %s" (Error.kind_to_string k)
  end
  | E.No_bug _ -> Alcotest.fail "state-machine safety violation not found"

let test_raft_correct_clean () =
  match
    E.run
      ~monitors:(fun () -> Raft.monitors ())
      { raft_config with max_executions = 1_000 }
      (Raft.test ())
  with
  | E.No_bug _ -> ()
  | E.Bug_found (r, _) ->
    Alcotest.failf "false positive: %s" (Error.kind_to_string r.Error.kind)

let test_raft_bug_replays () =
  match
    E.run
      ~monitors:(fun () -> Raft.monitors ())
      raft_config
      (Raft.test ~bugs:Raft.bug_double_vote ())
  with
  | E.Bug_found (report, _) ->
    let result =
      E.replay
        ~monitors:(fun () -> Raft.monitors ())
        raft_config report.Error.trace
        (Raft.test ~bugs:Raft.bug_double_vote ())
    in
    (match result.Psharp.Runtime.bug with
     | Some (Error.Safety_violation _) -> ()
     | _ -> Alcotest.fail "raft bug does not replay")
  | E.No_bug _ -> Alcotest.fail "bug not found"

let suite =
  [
    Alcotest.test_case "paxos: forget-promise found" `Slow
      test_paxos_forget_promise;
    Alcotest.test_case "paxos: choose-own-value found" `Slow
      test_paxos_choose_own_value;
    Alcotest.test_case "paxos: correct clean" `Slow test_paxos_correct_clean;
    Alcotest.test_case "raft: double-vote found" `Slow test_raft_double_vote;
    Alcotest.test_case "raft: stale-leader found" `Slow test_raft_stale_leader;
    Alcotest.test_case "raft: correct clean" `Slow test_raft_correct_clean;
    Alcotest.test_case "raft: bug replays" `Slow test_raft_bug_replays;
  ]
