(* Domain-parallel exploration (Worker_pool / Engine.workers) and the
   engine budget/bounds fixes that ride along with it. *)

module E = Psharp.Engine
module R = Psharp.Runtime
module W = Psharp.Worker_pool
module Error = Psharp.Error
module Trace = Psharp.Trace
module Id = Psharp.Id
module Event = Psharp.Event

type Event.t += Token

(* Same minimal racy program as test_engine: roughly half of all schedules
   violate the referee's assertion. *)
let racy_harness ctx =
  let first = ref None in
  let referee =
    R.create ctx ~name:"Referee" (fun rctx ->
        ignore (R.receive rctx);
        R.assert_here rctx (!first = Some "A") "B overtook A")
  in
  let writer name wctx =
    if !first = None then first := Some name;
    R.send wctx referee Token
  in
  ignore (R.create ctx ~name:"A" (writer "A"));
  ignore (R.create ctx ~name:"B" (writer "B"))

let clean_harness ctx =
  let echo = R.create ctx ~name:"Echo" (fun ectx -> ignore (R.receive ectx)) in
  R.send ctx echo Token

let config = { E.default_config with max_executions = 500; max_steps = 200 }

(* A pool body's step from an optional result and a step count. *)
let step result steps =
  match result with Some v -> W.Found (v, steps) | None -> W.Ran steps

(* A sweep is a hunt whose body never reports, so the whole budget runs.
   [sweep] keeps what [body] would have reported instead, and returns those
   values tagged with their iterations in iteration order, how many times
   each iteration ran, and the pool's stats. *)
let sweep ?batch ~workers ~max_iterations body =
  let runs = Array.init max_iterations (fun _ -> Atomic.make 0) in
  let kept = Array.make max_iterations None in
  let winner, stats =
    W.hunt ?batch ~workers ~max_iterations
      ~init:(fun ~worker:_ -> ())
      ~body:(fun () ~iteration ->
        Atomic.incr runs.(iteration);
        match body ~iteration with
        | W.Found (v, steps) ->
          kept.(iteration) <- Some (v, iteration);
          W.Ran steps
        | other -> other)
      ()
  in
  if winner <> None then Alcotest.fail "a sweep body reported";
  ( List.filter_map Fun.id (Array.to_list kept),
    Array.to_list (Array.map Atomic.get runs),
    stats )

(* The domain clamp would fold every worker onto this machine's cores;
   lifting it exercises the real multi-domain machinery regardless of how
   small the machine is. *)
let with_oversubscribe f =
  Unix.putenv "PSHARP_OVERSUBSCRIBE" "1";
  Fun.protect
    ~finally:(fun () -> Unix.putenv "PSHARP_OVERSUBSCRIBE" "0")
    f

(* --- Worker_pool ------------------------------------------------------- *)

let test_resolve () =
  Alcotest.(check int) "1 stays 1" 1 (W.resolve 1);
  Alcotest.(check int) "4 stays 4" 4 (W.resolve 4);
  Alcotest.(check bool) "0 means all cores (>= 1)" true (W.resolve 0 >= 1);
  Alcotest.check_raises "negative rejected"
    (Invalid_argument "Worker_pool.resolve: negative worker count") (fun () ->
      ignore (W.resolve (-1)))

let test_pool_sweep_collects_everything () =
  let results, runs, stats =
    sweep ~workers:4 ~max_iterations:20 (fun ~iteration ->
        step (if iteration mod 2 = 0 then Some iteration else None) 1)
  in
  Alcotest.(check int) "all iterations ran" 20 stats.W.executions;
  Alcotest.(check (list int)) "each exactly once" (List.init 20 (fun _ -> 1))
    runs;
  Alcotest.(check int) "steps summed" 20 stats.W.total_steps;
  Alcotest.(check (list (pair int int)))
    "even iterations, sorted by index"
    (List.init 10 (fun i -> (2 * i, 2 * i)))
    results

let test_pool_hunt_stops_early () =
  let winner, stats =
    W.hunt ~workers:4 ~max_iterations:10_000
      ~init:(fun ~worker:_ -> ())
      ~body:(fun () ~iteration ->
        step (if iteration >= 10 then Some iteration else None) 1)
      ()
  in
  (match winner with
   | Some (value, iteration) ->
     Alcotest.(check int) "value is its iteration" iteration value;
     Alcotest.(check bool) "a buggy iteration won" true (iteration >= 10)
   | None -> Alcotest.fail "expected a winner");
  Alcotest.(check bool) "stopped far short of the budget" true
    (stats.W.executions < 1_000)

let test_pool_hunt_lowest_iteration_wins () =
  (* Regression: a later iteration reporting first must not beat an
     earlier one still in flight. Iteration 3 sleeps long enough for
     iteration 7 to report; the min-updating stop bound must still let 3
     finish and crown it, at every worker count and thread timing. *)
  let winner, _ =
    W.hunt ~workers:3 ~max_iterations:100
      ~init:(fun ~worker:_ -> ())
      ~body:(fun () ~iteration ->
        if iteration = 3 then begin
          Unix.sleepf 0.05;
          W.Found (iteration, 1)
        end
        else if iteration = 7 then W.Found (iteration, 1)
        else W.Ran 1)
      ()
  in
  match winner with
  | Some (value, iteration) ->
    Alcotest.(check int) "lowest reporting iteration wins" 3 iteration;
    Alcotest.(check int) "value comes from that iteration" 3 value
  | None -> Alcotest.fail "expected a winner"

let test_pool_empty_budget () =
  let winner, stats =
    W.hunt ~workers:4 ~max_iterations:0
      ~init:(fun ~worker:_ -> ())
      ~body:(fun () ~iteration -> W.Found (iteration, 1))
      ()
  in
  Alcotest.(check bool) "no winner" true (winner = None);
  Alcotest.(check int) "no executions" 0 stats.W.executions

let test_pool_propagates_exceptions () =
  Alcotest.check_raises "worker exception reaches the caller"
    (Failure "boom") (fun () ->
      ignore
        (W.hunt ~workers:2 ~max_iterations:50
           ~init:(fun ~worker:_ -> ())
           ~body:(fun () ~iteration ->
             if iteration = 3 then failwith "boom" else W.Ran 1)
           ()))

(* --- Engine parallel semantics ----------------------------------------- *)

let test_parallel_clean_stats_match_sequential () =
  (* Parallel exploration covers exactly the sequential schedule set, so on
     a bug-free harness the merged step count must match sequentially. *)
  let cfg = { config with E.max_executions = 100 } in
  let seq =
    match E.run cfg clean_harness with
    | E.No_bug stats -> stats
    | E.Bug_found _ -> Alcotest.fail "clean harness reported a bug"
  in
  let par =
    match E.run { cfg with E.workers = 4 } clean_harness with
    | E.No_bug stats -> stats
    | E.Bug_found _ -> Alcotest.fail "clean harness reported a bug (parallel)"
  in
  Alcotest.(check int) "same executions" seq.E.executions par.E.executions;
  Alcotest.(check int) "same total steps" seq.E.total_steps par.E.total_steps

let test_parallel_finds_race () =
  match E.run { config with E.workers = 4; seed = 7L } racy_harness with
  | E.Bug_found (report, stats) ->
    (match report.Error.kind with
     | Error.Assertion_failure _ -> ()
     | k -> Alcotest.failf "wrong kind: %s" (Error.kind_to_string k));
    Alcotest.(check bool) "stopped early" true (stats.E.executions < 500);
    (* The reported witness replays deterministically. *)
    let result = E.replay config report.Error.trace racy_harness in
    (match result.R.bug with
     | Some (Error.Assertion_failure _) -> ()
     | _ -> Alcotest.fail "parallel witness did not replay")
  | E.No_bug _ -> Alcotest.fail "race not found with 4 workers"

let test_parallel_same_vnext_bug_kind_as_sequential () =
  let cfg =
    {
      E.default_config with
      max_executions = 4_000;
      max_steps = 3_000;
      seed = 0L;
    }
  in
  let hunt workers =
    match
      E.run
        ~monitors:(fun () -> Vnext.Testing_driver.monitors ())
        { cfg with E.workers }
        (Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.liveness_bug
           ~scenario:Vnext.Testing_driver.Fail_and_repair ())
    with
    | E.Bug_found (report, _) -> report.Error.kind
    | E.No_bug _ -> Alcotest.failf "bug not found with %d worker(s)" workers
  in
  match (hunt 1, hunt 4) with
  | ( Error.Liveness_violation { monitor = m1; _ },
      Error.Liveness_violation { monitor = m2; _ } ) ->
    Alcotest.(check string) "same monitor" m1 m2;
    Alcotest.(check string) "repair monitor" "RepairMonitor" m1
  | k1, k2 ->
    Alcotest.failf "kinds differ: %s vs %s" (Error.kind_to_string k1)
      (Error.kind_to_string k2)

(* Four writers race to a referee that fails only when they ran in reverse
   creation order: a hunt takes tens of executions, not one or two. *)
let reverse_order_harness ctx =
  let order = ref [] in
  let referee =
    R.create ctx ~name:"Referee" (fun rctx ->
        for _ = 1 to 4 do
          ignore (R.receive rctx)
        done;
        R.assert_here rctx (!order <> [ 0; 1; 2; 3 ]) "writers ran in reverse")
  in
  List.iter
    (fun i ->
      ignore
        (R.create ctx ~name:(Printf.sprintf "W%d" i) (fun wctx ->
             order := i :: !order;
             R.send wctx referee Token)))
    [ 0; 1; 2; 3 ]

let test_hubless_fuzz_falls_back_to_sequential () =
  (* Fuzz without an exchange hub grows one corpus across executions, so it
     ignores [workers] (with a notice) and runs the one-worker hunt. *)
  with_oversubscribe @@ fun () ->
  let hunt workers =
    let cfg =
      {
        config with
        E.strategy = E.Fuzz { corpus_cap = 32 };
        workers;
        seed = 3L;
      }
    in
    match E.run cfg reverse_order_harness with
    | E.Bug_found (report, stats) ->
      ( stats.E.executions,
        stats.E.total_steps,
        Digest.to_hex (Digest.string (Trace.to_string report.Error.trace)) )
    | E.No_bug _ -> Alcotest.failf "race not found with %d worker(s)" workers
  in
  let execs, steps, witness = hunt 1 in
  Alcotest.(check bool) "the hunt spans batches" true (execs > 16);
  let execs4, steps4, witness4 = hunt 4 in
  Alcotest.(check int) "same executions" execs execs4;
  Alcotest.(check int) "same total steps" steps steps4;
  Alcotest.(check string) "same witness" witness witness4

(* --- Survey budget fixes ----------------------------------------------- *)

let test_survey_honors_max_seconds () =
  (* Before the fix, survey ignored max_seconds and would grind through the
     whole 10M-execution budget (minutes); now it stops at the deadline. *)
  let cfg =
    {
      E.default_config with
      max_executions = 10_000_000;
      max_steps = 200;
      max_seconds = Some 0.2;
    }
  in
  let started = Unix.gettimeofday () in
  let found = E.survey cfg clean_harness in
  let elapsed = Unix.gettimeofday () -. started in
  Alcotest.(check (list (pair reject int))) "no violations" [] found;
  Alcotest.(check bool) "returned at the deadline" true (elapsed < 5.0)

let test_deadline_aborts_inside_an_execution () =
  (* Regression: max_seconds used to be checked only *between* executions,
     so one long execution overshot the budget arbitrarily. The deadline
     is now threaded into the runtime step loop: a single execution that
     would run for ~half a minute aborts at the bound, and stats report
     the timeout. The timed-out execution also ends the run: with one
     worker it is the only one counted, and with several at most one per
     worker — never the rest of a claimed batch. *)
  with_oversubscribe @@ fun () ->
  let spinner ctx =
    let rec loop () =
      R.send ctx (R.self ctx) Token;
      ignore (R.receive ctx);
      loop ()
    in
    loop ()
  in
  List.iter
    (fun workers ->
      let cfg =
        {
          E.default_config with
          max_executions = 1_000;
          max_steps = 50_000_000;
          max_seconds = Some 0.2;
          workers;
        }
      in
      let started = Unix.gettimeofday () in
      (match E.run cfg spinner with
       | E.No_bug stats ->
         Alcotest.(check bool) "stats report the timeout" true stats.E.timed_out;
         Alcotest.(check bool) "at most one execution per worker" true
           (stats.E.executions >= 1 && stats.E.executions <= workers)
       | E.Bug_found (r, _) ->
         Alcotest.failf "unexpected bug: %s" (Error.kind_to_string r.Error.kind));
      Alcotest.(check bool) "aborted mid-execution at the bound" true
        (Unix.gettimeofday () -. started < 5.0))
    [ 1; 2 ]

let test_pool_stop_signals_count_no_phantoms () =
  (* [Final] counts its own iteration and stops the later ones. *)
  let _, final =
    W.hunt ~workers:1 ~max_iterations:100
      ~init:(fun ~worker:_ -> ())
      ~body:(fun () ~iteration -> if iteration < 5 then W.Ran 2 else W.Final 2)
      ()
  in
  Alcotest.(check int) "final: its iteration counts" 6 final.W.executions;
  Alcotest.(check int) "final: its steps count" 12 final.W.total_steps

let test_survey_partial_results_at_deadline () =
  let cfg =
    {
      E.default_config with
      max_executions = 10_000_000;
      max_steps = 200;
      max_seconds = Some 0.3;
    }
  in
  let found = E.survey cfg racy_harness in
  Alcotest.(check bool) "partial results collected" true (found <> []);
  List.iter
    (fun (report, n) ->
      Alcotest.(check bool) "positive count" true (n > 0);
      Alcotest.(check bool) "has witness" true
        (Trace.length report.Error.trace > 0))
    found

let test_survey_parallel_matches_sequential_kinds () =
  (* Worker-local survey tables merged after the join: the same kinds, the
     same counts, and each kind's witness from its lowest iteration. *)
  with_oversubscribe @@ fun () ->
  let survey workers =
    E.survey
      { E.default_config with max_executions = 300; max_steps = 200; seed = 3L; workers }
      racy_harness
    |> List.map (fun (r, n) ->
           (Error.kind_to_string r.Error.kind, n, Trace.to_string r.Error.trace))
  in
  let seq = survey 1 in
  Alcotest.(check bool) "found something" true (seq <> []);
  let rows = Alcotest.(list (triple string int string)) in
  Alcotest.check rows "2-worker survey = sequential" seq (survey 2);
  Alcotest.check rows "4-worker survey = sequential" seq (survey 4)

(* --- Runtime.name_of bounds -------------------------------------------- *)

let test_name_of_forged_negative_id () =
  let harness ctx =
    let forged = Id.make ~index:(-3) ~name:"ghost" in
    R.assert_here ctx
      (R.name_of ctx forged = "<unknown>")
      "negative index must map to <unknown>";
    (* And an index past the end still answers <unknown>. *)
    let beyond = Id.make ~index:999 ~name:"ghost" in
    R.assert_here ctx
      (R.name_of ctx beyond = "<unknown>")
      "out-of-range index must map to <unknown>"
  in
  match E.run { config with E.max_executions = 1 } harness with
  | E.No_bug _ -> ()
  | E.Bug_found (r, _) ->
    Alcotest.failf "name_of misbehaved: %s" (Error.kind_to_string r.Error.kind)

(* --- Negative int choices in recorded traces --------------------------- *)

let test_lenient_strategy_rejects_negative_int () =
  let strategy =
    Psharp.Replay_strategy.lenient ~name:"lenient" ~seed:42L
      (Trace.of_list [ Trace.Int (-5) ])
  in
  let v = strategy.Psharp.Strategy.next_int ~bound:10 ~step:0 in
  Alcotest.(check bool) "diverged to a valid value" true (v >= 0 && v < 10);
  (* Having diverged, the rest of the trace is abandoned. *)
  let v2 = strategy.Psharp.Strategy.next_int ~bound:10 ~step:1 in
  Alcotest.(check bool) "still valid" true (v2 >= 0 && v2 < 10)

let test_replay_rejects_negative_int () =
  let harness ctx = ignore (R.nondet_int ctx 10) in
  let trace = Trace.of_list [ Trace.Schedule 0; Trace.Int (-5) ] in
  let result = E.replay config trace harness in
  match result.R.bug with
  | Some (Error.Replay_divergence _) -> ()
  | Some k ->
    Alcotest.failf "wrong kind: %s" (Error.kind_to_string k)
  | None -> Alcotest.fail "negative int choice replayed as if valid"

(* --- Batch-size and worker-count equivalence ----------------------------- *)

let batch_sizes = [ 1; 4; 16 ]

let test_sweep_equivalent_across_claims_and_workers () =
  (* Every batch size and worker count must cover exactly the same
     iteration set and fold the same stats — the invariant that lets the
     engine change either without moving any golden digest. *)
  with_oversubscribe @@ fun () ->
  let iterations = 60 in
  let body ~iteration =
    step
      (if iteration mod 3 = 0 then Some (iteration * iteration) else None)
      (1 + (iteration mod 5))
  in
  let expected_results =
    List.init iterations Fun.id
    |> List.filter_map (fun i ->
           if i mod 3 = 0 then Some (i * i, i) else None)
  in
  let expected_steps =
    List.fold_left ( + ) 0 (List.init iterations (fun i -> 1 + (i mod 5)))
  in
  List.iter
    (fun batch ->
      List.iter
        (fun workers ->
          let results, runs, stats =
            sweep ~batch ~workers ~max_iterations:iterations body
          in
          let tag = Printf.sprintf "batch%d/%d-worker" batch workers in
          Alcotest.(check (list (pair int int)))
            (tag ^ ": same results") expected_results results;
          Alcotest.(check (list int))
            (tag ^ ": each iteration once")
            (List.init iterations (fun _ -> 1))
            runs;
          Alcotest.(check int)
            (tag ^ ": all iterations ran") iterations stats.W.executions;
          Alcotest.(check int)
            (tag ^ ": same folded steps") expected_steps stats.W.total_steps)
        [ 1; 2; 4 ])
    batch_sizes

let test_hunt_winner_identical_across_claims_and_workers () =
  (* Two iterations report (13 and 27); the lowest must win under every
     batch size and worker count. *)
  with_oversubscribe @@ fun () ->
  let body () ~iteration =
    step (if iteration = 13 || iteration = 27 then Some iteration else None) 1
  in
  List.iter
    (fun batch ->
      List.iter
        (fun workers ->
          let winner, _ =
            W.hunt ~batch ~workers ~max_iterations:100
              ~init:(fun ~worker:_ -> ())
              ~body ()
          in
          match winner with
          | Some (value, iteration) ->
            let tag = Printf.sprintf "batch%d/%d-worker" batch workers in
            Alcotest.(check int) (tag ^ ": lowest iteration wins") 13 iteration;
            Alcotest.(check int) (tag ^ ": value from that iteration") 13 value
          | None -> Alcotest.fail "expected a winner")
        [ 1; 2; 4 ])
    batch_sizes

let test_merged_coverage_identical_1_2_4_workers () =
  (* Batch-boundary shard merging must produce the same merged map as the
     one-worker accumulator — absorb is commutative, the iteration set is
     identical — at every worker count, on real domains. With hb tracking
     each worker owns its recorder, and the merged partial orders (hb
     fingerprints included in [Coverage.equal]) must match too. *)
  with_oversubscribe @@ fun () ->
  let explore reduce workers =
    let stats =
      E.explore
        {
          config with
          E.max_executions = 120;
          coverage_mode = E.Collect;
          reduce;
          workers;
        }
        racy_harness
    in
    Alcotest.(check int) "full budget explored" 120 stats.E.executions;
    match stats.E.coverage with
    | Some cov -> cov
    | None -> Alcotest.fail "explore returned no coverage"
  in
  List.iter
    (fun (label, reduce) ->
      let seq = explore reduce 1 in
      Alcotest.(check bool)
        (label ^ ": 2-worker merged map = sequential") true
        (Psharp.Coverage.equal seq (explore reduce 2));
      Alcotest.(check bool)
        (label ^ ": 4-worker merged map = sequential") true
        (Psharp.Coverage.equal seq (explore reduce 4)))
    [ ("no reduction", E.No_reduction); ("hb track", E.Hb_track) ];
  let tracked = Psharp.Coverage.totals (explore E.Hb_track 1) in
  Alcotest.(check bool) "hb tracking filed partial orders" true
    (tracked.Psharp.Coverage.partial_orders > 0)

let test_hunt_witness_identical_1_2_4_workers () =
  with_oversubscribe @@ fun () ->
  let witness workers =
    match E.run { config with E.workers; seed = 5L } racy_harness with
    | E.Bug_found (report, _) -> Trace.to_string report.Error.trace
    | E.No_bug _ -> Alcotest.failf "race not found with %d worker(s)" workers
  in
  let seq = witness 1 in
  Alcotest.(check string) "2-worker witness = sequential" seq (witness 2);
  Alcotest.(check string) "4-worker witness = sequential" seq (witness 4)

let suite =
  [
    Alcotest.test_case "pool: resolve worker counts" `Quick test_resolve;
    Alcotest.test_case "pool: sweep collects everything" `Quick
      test_pool_sweep_collects_everything;
    Alcotest.test_case "pool: hunt stops early" `Quick
      test_pool_hunt_stops_early;
    Alcotest.test_case "pool: lowest iteration wins the hunt" `Quick
      test_pool_hunt_lowest_iteration_wins;
    Alcotest.test_case "pool: empty budget" `Quick test_pool_empty_budget;
    Alcotest.test_case "pool: exceptions propagate" `Quick
      test_pool_propagates_exceptions;
    Alcotest.test_case "engine: parallel clean stats = sequential" `Quick
      test_parallel_clean_stats_match_sequential;
    Alcotest.test_case "engine: parallel finds race + witness replays" `Quick
      test_parallel_finds_race;
    Alcotest.test_case "engine: parallel finds same vnext bug kind" `Slow
      test_parallel_same_vnext_bug_kind_as_sequential;
    Alcotest.test_case "engine: hub-less fuzz ignores workers" `Quick
      test_hubless_fuzz_falls_back_to_sequential;
    Alcotest.test_case "survey: honors max_seconds" `Quick
      test_survey_honors_max_seconds;
    Alcotest.test_case "deadline aborts inside an execution" `Quick
      test_deadline_aborts_inside_an_execution;
    Alcotest.test_case "pool: stop signals count no phantom iterations" `Quick
      test_pool_stop_signals_count_no_phantoms;
    Alcotest.test_case "survey: partial results at deadline" `Quick
      test_survey_partial_results_at_deadline;
    Alcotest.test_case "survey: parallel matches sequential kinds" `Quick
      test_survey_parallel_matches_sequential_kinds;
    Alcotest.test_case "runtime: name_of guards forged ids" `Quick
      test_name_of_forged_negative_id;
    Alcotest.test_case "shrinker: lenient replay rejects negative ints" `Quick
      test_lenient_strategy_rejects_negative_int;
    Alcotest.test_case "replay: rejects negative int choices" `Quick
      test_replay_rejects_negative_int;
    Alcotest.test_case "pool: sweep equivalent across claims and workers"
      `Quick test_sweep_equivalent_across_claims_and_workers;
    Alcotest.test_case "pool: hunt winner identical across claims and workers"
      `Quick test_hunt_winner_identical_across_claims_and_workers;
    Alcotest.test_case "engine: merged coverage identical at 1/2/4 workers"
      `Quick test_merged_coverage_identical_1_2_4_workers;
    Alcotest.test_case "engine: hunt witness identical at 1/2/4 workers"
      `Quick test_hunt_witness_identical_1_2_4_workers;
  ]
