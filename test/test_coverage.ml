(* Coverage maps, engine coverage plumbing, the plateau bound and the
   feedback-directed fuzz strategy. *)

module Coverage = Psharp.Coverage
module E = Psharp.Engine
module R = Psharp.Runtime
module Error = Psharp.Error
module Trace = Psharp.Trace
module Event = Psharp.Event
module Fuzz = Psharp.Fuzz_strategy

type Event.t += Token

(* Same minimal racy program as test_parallel: roughly half of all
   schedules violate the referee's assertion. *)
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

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

(* --- Map construction and merging -------------------------------------- *)

(* Three overlapping per-execution maps, as the workers would produce. *)
let sample_maps () =
  let a = Coverage.create () in
  Coverage.visit_state a ~machine:"M" ~state:"Init";
  Coverage.deliver a ~sender:"A" ~event:"Token" ~receiver:"M" ~state:"Init";
  Coverage.branch_bool a ~machine:"M" true;
  Coverage.note_execution a ~fingerprint:1L;
  let b = Coverage.create () in
  Coverage.visit_state b ~machine:"M" ~state:"Init";
  Coverage.visit_state b ~machine:"M" ~state:"Done";
  Coverage.branch_int b ~machine:"M" ~bound:3 2;
  Coverage.note_execution b ~fingerprint:2L;
  let c = Coverage.create () in
  Coverage.deliver c ~sender:"B" ~event:"Token" ~receiver:"M" ~state:"Done";
  Coverage.branch_bool c ~machine:"M" true;
  Coverage.note_execution c ~fingerprint:1L;
  (a, b, c)

let test_absorb_order_independent () =
  let merge order =
    let acc = Coverage.create () in
    List.iter (fun m -> ignore (Coverage.absorb ~into:acc m)) order;
    acc
  in
  let a, b, c = sample_maps () in
  let abc = merge [ a; b; c ] in
  let a, b, c = sample_maps () in
  let cba = merge [ c; b; a ] in
  let a, b, c = sample_maps () in
  let bac = merge [ b; a; c ] in
  Alcotest.(check bool) "abc = cba" true (Coverage.equal abc cba);
  Alcotest.(check bool) "abc = bac" true (Coverage.equal abc bac);
  let t = Coverage.totals abc in
  Alcotest.(check int) "states" 2 t.Coverage.machine_states;
  Alcotest.(check int) "event types" 1 t.Coverage.event_types;
  Alcotest.(check int) "triples" 2 t.Coverage.transition_triples;
  Alcotest.(check int) "branches" 2 t.Coverage.branch_outcomes;
  Alcotest.(check int) "unique schedules" 2 t.Coverage.unique_schedules;
  Alcotest.(check int) "executions" 3 t.Coverage.executions

let test_absorb_novelty () =
  let acc = Coverage.create () in
  let a, _, _ = sample_maps () in
  Alcotest.(check bool) "first absorb is novel" true
    (Coverage.absorb ~into:acc a);
  let a, _, _ = sample_maps () in
  Alcotest.(check bool) "identical absorb is not novel" false
    (Coverage.absorb ~into:acc a);
  (* A new schedule fingerprint alone does not count as novelty: random
     scheduling makes almost every schedule unique, which would drown the
     feedback signal. *)
  let fp_only = Coverage.create () in
  Coverage.visit_state fp_only ~machine:"M" ~state:"Init";
  Coverage.note_execution fp_only ~fingerprint:99L;
  Alcotest.(check bool) "new fingerprint alone is not novel" false
    (Coverage.absorb ~into:acc fp_only);
  let t = Coverage.totals acc in
  Alcotest.(check int) "fingerprint still filed" 2 t.Coverage.unique_schedules;
  Alcotest.(check int) "executions counted" 3 t.Coverage.executions

let test_absorb_tagged_families () =
  let acc = Coverage.create () in
  let a, _, _ = sample_maps () in
  let n = Coverage.absorb_tagged ~into:acc a in
  Alcotest.(check int) "one new state" 1 n.Coverage.new_states;
  Alcotest.(check int) "one new event type" 1 n.Coverage.new_events;
  Alcotest.(check int) "one new triple" 1 n.Coverage.new_triples;
  Alcotest.(check int) "one new branch" 1 n.Coverage.new_branches;
  Alcotest.(check int) "no fault points" 0 n.Coverage.new_faults;
  Alcotest.(check bool) "core-novel" true (Coverage.novel_core n);
  Alcotest.(check (list string))
    "novel families in canonical order"
    [ "state"; "event"; "triple"; "branch" ]
    (List.map Coverage.family_kind_to_string (Coverage.novel_families n));
  (* the identical map again: nothing novel anywhere *)
  let a, _, _ = sample_maps () in
  let n2 = Coverage.absorb_tagged ~into:acc a in
  Alcotest.(check bool) "re-absorb not novel" false (Coverage.novel_core n2);
  Alcotest.(check (list string)) "no novel families" []
    (List.map Coverage.family_kind_to_string (Coverage.novel_families n2));
  (* a new hb fingerprint is reported in new_hb but excluded from the
     boolean core summary (the historical absorb semantics) *)
  let hb_only = Coverage.create () in
  Coverage.visit_state hb_only ~machine:"M" ~state:"Init";
  Coverage.note_hb hb_only ~fingerprint:7L;
  let n3 = Coverage.absorb_tagged ~into:acc hb_only in
  Alcotest.(check int) "new hb counted" 1 n3.Coverage.new_hb;
  Alcotest.(check bool) "hb alone is not core-novel" false
    (Coverage.novel_core n3);
  Alcotest.(check bool) "but novel_in Hb sees it" true
    (Coverage.novel_in n3 Coverage.Hb);
  Alcotest.(check bool) "absorb agrees with novel_core" false
    (let acc2 = Coverage.create () in
     ignore (Coverage.absorb ~into:acc2 hb_only);
     let again = Coverage.create () in
     Coverage.visit_state again ~machine:"M" ~state:"Init";
     Coverage.note_hb again ~fingerprint:8L;
     Coverage.absorb ~into:acc2 again)

let test_family_kind_strings () =
  List.iter
    (fun k ->
      Alcotest.(check bool) "round-trips" true
        (Coverage.family_kind_of_string (Coverage.family_kind_to_string k) = k))
    Coverage.all_family_kinds;
  match Coverage.family_kind_of_string "warp" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "unknown family name accepted"

let test_fingerprint_pure () =
  let t1 = Trace.of_list [ Trace.Schedule 0; Trace.Bool true; Trace.Int 7 ] in
  let t2 = Trace.of_list [ Trace.Schedule 0; Trace.Bool true; Trace.Int 7 ] in
  let t3 = Trace.of_list [ Trace.Schedule 0; Trace.Bool false; Trace.Int 7 ] in
  Alcotest.(check bool) "same trace, same fingerprint" true
    (Int64.equal (Coverage.fingerprint t1) (Coverage.fingerprint t2));
  Alcotest.(check bool) "different trace, different fingerprint" false
    (Int64.equal (Coverage.fingerprint t1) (Coverage.fingerprint t3));
  Alcotest.(check bool) "empty differs from sample" false
    (Int64.equal (Coverage.fingerprint Trace.empty) (Coverage.fingerprint t1))

(* --- Engine plumbing ---------------------------------------------------- *)

let test_run_collects_coverage_and_files_bug_fingerprint () =
  match E.run { config with E.collect_coverage = true } racy_harness with
  | E.No_bug _ -> Alcotest.fail "race not found"
  | E.Bug_found (report, stats) ->
    let cov =
      match stats.E.coverage with
      | Some cov -> cov
      | None -> Alcotest.fail "coverage requested but absent"
    in
    let t = Coverage.totals cov in
    Alcotest.(check bool) "saw states" true (t.Coverage.machine_states > 0);
    Alcotest.(check bool) "saw triples" true
      (t.Coverage.transition_triples > 0);
    Alcotest.(check int) "every execution counted" stats.E.executions
      t.Coverage.executions;
    (* The buggy schedule's fingerprint is in the run's schedule set, and
       replaying the recorded trace reproduces it exactly. *)
    let fp = Coverage.fingerprint report.Error.trace in
    Alcotest.(check bool) "bug fingerprint filed" true
      (List.mem_assoc fp (Coverage.schedules cov));
    let result = E.replay config report.Error.trace racy_harness in
    Alcotest.(check bool) "replay reproduces the fingerprint" true
      (Int64.equal fp (Coverage.fingerprint result.R.choices))

let test_parallel_coverage_matches_sequential () =
  let cfg = { config with E.max_executions = 100; collect_coverage = true } in
  let coverage_of workers =
    match E.run { cfg with E.workers } clean_harness with
    | E.No_bug { coverage = Some cov; _ } -> cov
    | E.No_bug _ -> Alcotest.fail "coverage absent"
    | E.Bug_found _ -> Alcotest.fail "clean harness reported a bug"
  in
  let seq = coverage_of 1 in
  let par = coverage_of 2 in
  Alcotest.(check bool) "identical maps at the same budget" true
    (Coverage.equal seq par);
  let ts = Coverage.totals seq and tp = Coverage.totals par in
  Alcotest.(check int) "same executions" ts.Coverage.executions
    tp.Coverage.executions;
  Alcotest.(check int) "same unique schedules" ts.Coverage.unique_schedules
    tp.Coverage.unique_schedules

let test_plateau_stops_early () =
  let cfg =
    {
      config with
      E.max_executions = 5_000;
      coverage_plateau = Some 20;
    }
  in
  match E.run cfg clean_harness with
  | E.Bug_found _ -> Alcotest.fail "clean harness reported a bug"
  | E.No_bug stats ->
    Alcotest.(check bool) "plateaued" true stats.E.plateaued;
    Alcotest.(check bool) "stopped far short of the budget" true
      (stats.E.executions < 5_000);
    Alcotest.(check bool) "coverage collected implicitly" true
      (stats.E.coverage <> None)

let test_explore_never_stops_at_bugs () =
  let stats = E.explore { config with E.max_executions = 50 } racy_harness in
  Alcotest.(check int) "full budget spent" 50 stats.E.executions;
  match stats.E.coverage with
  | None -> Alcotest.fail "explore must collect coverage"
  | Some cov ->
    Alcotest.(check int) "every execution in the map" 50
      (Coverage.totals cov).Coverage.executions

(* --- Fuzz strategy ------------------------------------------------------ *)

let test_fuzz_finds_race_deterministically () =
  let cfg =
    { config with E.strategy = E.Fuzz { corpus_cap = 8 }; seed = 11L }
  in
  let run () =
    match E.run cfg racy_harness with
    | E.Bug_found (report, stats) -> (report, stats)
    | E.No_bug _ -> Alcotest.fail "fuzz did not find the race"
  in
  let r1, s1 = run () in
  let r2, s2 = run () in
  Alcotest.(check int) "same executions to bug" s1.E.executions
    s2.E.executions;
  Alcotest.(check bool) "same witness trace" true
    (Trace.equal r1.Error.trace r2.Error.trace);
  (* The witness replays deterministically like any other strategy's. *)
  let result = E.replay cfg r1.Error.trace racy_harness in
  match result.R.bug with
  | Some (Error.Assertion_failure _) -> ()
  | _ -> Alcotest.fail "fuzz witness did not replay"

let test_fuzz_ignores_workers () =
  (* Fuzz is stateful (corpus), so [workers] falls back to sequential and
     the result matches the sequential run exactly. *)
  let cfg =
    { config with E.strategy = E.Fuzz { corpus_cap = 8 }; seed = 11L }
  in
  let witness cfg =
    match E.run cfg racy_harness with
    | E.Bug_found (report, _) -> report.Error.trace
    | E.No_bug _ -> Alcotest.fail "fuzz did not find the race"
  in
  Alcotest.(check bool) "workers=4 matches sequential" true
    (Trace.equal (witness cfg) (witness { cfg with E.workers = 4 }))

(* --- Fuzzing v2: mutation operators, power schedule, exchange, plateau -- *)

let e1_choices =
  [
    Trace.Schedule 0;
    Trace.Bool true;
    Trace.Int 5;
    Trace.Schedule 1;
    Trace.Bool true;
    Trace.Int 4;
    Trace.Schedule 0;
    Trace.Bool true;
  ]

let e2_choices =
  [ Trace.Schedule 1; Trace.Int 3; Trace.Schedule 0; Trace.Bool false; Trace.Int 2 ]

let mutation_corpus () = [ Trace.of_list e1_choices; Trace.of_list e2_choices ]

let mutants op =
  List.init 64 (fun s ->
      Array.of_list
        (Trace.to_list
           (Fuzz.mutate_for_test ~seed:(Int64.of_int s)
              ~corpus:(mutation_corpus ()) op)))

let is_prefix_of m e =
  Array.length m <= Array.length e
  && Array.for_all (fun i -> m.(i) = e.(i))
       (Array.init (Array.length m) Fun.id)

let test_mutation_operators_distinguishable () =
  let e1 = Array.of_list e1_choices and e2 = Array.of_list e2_choices in
  let source m =
    (* entry lengths differ, so a same-length mutant names its source *)
    if Array.length m = Array.length e1 then Some e1
    else if Array.length m = Array.length e2 then Some e2
    else None
  in
  let tr = mutants Fuzz.Truncate
  and rw = mutants Fuzz.Rewindow
  and sp = mutants Fuzz.Splice
  and ft = mutants Fuzz.Fault_tune in
  (* Truncate: always a non-empty prefix of a corpus entry. *)
  List.iter
    (fun m ->
      Alcotest.(check bool) "truncate keeps a non-empty prefix" true
        (Array.length m > 0 && (is_prefix_of m e1 || is_prefix_of m e2)))
    tr;
  (* Rewindow: same length as its source, and — the repaired behavior —
     at least one mutant perturbs the interior while the final choice
     (beyond the window) survives. The pre-fix operator could only
     produce prefixes, indistinguishable from Truncate. *)
  List.iter
    (fun m ->
      Alcotest.(check bool) "rewindow preserves the length" true
        (source m <> None))
    rw;
  Alcotest.(check bool) "rewindow perturbs the interior, keeps the suffix"
    true
    (List.exists
       (fun m ->
         match source m with
         | Some e ->
           let last = Array.length e - 1 in
           m.(last) = e.(last)
           && List.exists (fun i -> m.(i) <> e.(i))
                (List.init last Fun.id)
         | None -> false)
       rw);
  (* Splice: can cross entries, producing traces longer than either. *)
  Alcotest.(check bool) "splice crosses entries" true
    (List.exists (fun m -> Array.length m > Array.length e1) sp);
  (* Fault_tune: the Schedule spine is byte-identical to the source; only
     value draws move, and at least one actually does. *)
  let tuned = ref false in
  List.iter
    (fun m ->
      match source m with
      | None -> Alcotest.fail "fault-tune changed the length"
      | Some e ->
        Array.iteri
          (fun i c ->
            match e.(i) with
            | Trace.Schedule _ ->
              Alcotest.(check bool) "schedule spine untouched" true (c = e.(i))
            | Trace.Bool _ | Trace.Int _ -> if c <> e.(i) then tuned := true)
          m)
    ft;
  Alcotest.(check bool) "fault-tune perturbed some value draw" true !tuned;
  (* The three schedule operators yield pairwise different mutant streams
     from the same corpus and seeds. *)
  Alcotest.(check bool) "truncate <> rewindow" true (tr <> rw);
  Alcotest.(check bool) "truncate <> splice" true (tr <> sp);
  Alcotest.(check bool) "rewindow <> splice" true (rw <> sp)

let test_weighted_pick_distribution () =
  let energies = [| 1; 9; 2 |] in
  let counts = Array.make 3 0 in
  for r = 0 to 11 do
    let i =
      Fuzz.weighted_pick
        ~draw:(fun total ->
          Alcotest.(check int) "total is the energy sum" 12 total;
          r)
        energies
    in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check (list int)) "hits proportional to energy" [ 1; 9; 2 ]
    (Array.to_list counts);
  (* Non-positive energies are clamped to 1, never starved. *)
  Alcotest.(check int) "zero-energy entry still reachable" 0
    (Fuzz.weighted_pick ~draw:(fun _ -> 0) [| 0; 1 |])

let test_exchange_dedups_and_counts_drops () =
  let t1 = Trace.of_list [ Trace.Schedule 0; Trace.Bool true ] in
  let t2 = Trace.of_list [ Trace.Schedule 1 ] in
  let t3 = Trace.of_list [ Trace.Int 2 ] in
  let ex =
    Fuzz.Exchange.of_entries ~cap:2
      [
        { Fuzz.trace = t1; energy = 13; tags = [ Coverage.Fault; Coverage.Hb ] };
        Fuzz.entry_of_trace t1 (* same fingerprint: duplicate *);
        Fuzz.entry_of_trace t2;
        Fuzz.entry_of_trace t3 (* pool full: dropped at cap *);
      ]
  in
  let st = Fuzz.Exchange.stats ex in
  Alcotest.(check int) "accepted" 2 st.Fuzz.Exchange.accepted;
  Alcotest.(check int) "duplicate counted" 1 st.Fuzz.Exchange.dropped_dup;
  Alcotest.(check int) "cap drop counted" 1 st.Fuzz.Exchange.dropped_cap;
  match Fuzz.Exchange.snapshot ex with
  | [ a; b ] ->
    Alcotest.(check bool) "first entry survives with trace" true
      (Trace.equal a.Fuzz.trace t1);
    Alcotest.(check int) "energy preserved" 13 a.Fuzz.energy;
    Alcotest.(check (list string)) "tags preserved" [ "fault"; "hb" ]
      (List.map Coverage.family_kind_to_string a.Fuzz.tags);
    Alcotest.(check bool) "second entry is the non-duplicate" true
      (Trace.equal b.Fuzz.trace t2)
  | l -> Alcotest.fail (Printf.sprintf "expected 2 entries, got %d" (List.length l))

let test_plateau_family_keys_the_bound () =
  (* Keyed to hb with happens-before tracking off, no execution ever
     contributes hb novelty — not even the first — so the hunt stops after
     exactly the bound. *)
  let cfg =
    {
      config with
      E.max_executions = 5_000;
      coverage_plateau = Some 10;
      plateau_family = Some Coverage.Hb;
    }
  in
  (match E.run cfg clean_harness with
  | E.Bug_found _ -> Alcotest.fail "clean harness reported a bug"
  | E.No_bug stats ->
    Alcotest.(check bool) "plateaued" true stats.E.plateaued;
    Alcotest.(check int) "no hb novelty from execution one" 10
      stats.E.executions);
  (* Keyed to the state family, the first execution's fresh states reset
     the counter before the drought starts. *)
  match E.run { cfg with E.plateau_family = Some Coverage.State } clean_harness with
  | E.Bug_found _ -> Alcotest.fail "clean harness reported a bug"
  | E.No_bug stats ->
    Alcotest.(check bool) "plateaued" true stats.E.plateaued;
    Alcotest.(check bool) "states reset the counter first" true
      (stats.E.executions > 10 && stats.E.executions < 5_000)

let test_fuzz_v2_deterministic () =
  (* Energy scheduling + fault mutation on (with hb tracking feeding the
     power schedule): still fully deterministic under a fixed seed, and
     the witness still replays. *)
  let cfg =
    {
      config with
      E.strategy = E.Fuzz { corpus_cap = 8 };
      seed = 11L;
      fuzz_energy = true;
      fuzz_mutate_faults = true;
      reduce = E.Hb_track;
    }
  in
  let run () =
    match E.run cfg racy_harness with
    | E.Bug_found (report, stats) -> (report, stats)
    | E.No_bug _ -> Alcotest.fail "fuzz v2 did not find the race"
  in
  let r1, s1 = run () in
  let r2, s2 = run () in
  Alcotest.(check int) "same executions to bug" s1.E.executions
    s2.E.executions;
  Alcotest.(check bool) "same witness trace" true
    (Trace.equal r1.Error.trace r2.Error.trace);
  let result = E.replay cfg r1.Error.trace racy_harness in
  match result.R.bug with
  | Some (Error.Assertion_failure _) -> ()
  | _ -> Alcotest.fail "fuzz v2 witness did not replay"

(* --- Reporting ---------------------------------------------------------- *)

let test_pp_outcome_shows_steps_and_coverage () =
  let outcome = E.run { config with E.collect_coverage = true } racy_harness in
  let rendered = Format.asprintf "%a" E.pp_outcome outcome in
  Alcotest.(check bool) "mentions total steps" true
    (contains rendered "total step");
  Alcotest.(check bool) "mentions coverage states" true
    (contains rendered "states")

let test_to_json_wellformed () =
  let a, b, _ = sample_maps () in
  ignore (Coverage.absorb ~into:a b);
  let json = Coverage.to_json a in
  Alcotest.(check bool) "has totals" true (contains json "\"totals\"");
  Alcotest.(check bool) "has triples" true
    (contains json "A -[Token]-> M@Init");
  Alcotest.(check bool) "has schedules" true
    (contains json "\"schedule_fingerprints\"")

(* --- direct recording vs the per-execution shard path ------------------- *)

(* The sequential engine records every execution straight into the run
   accumulator and reads novelty off its growth. [shard_run] replays the
   same fuzz v2 + hb-tracking run the way parallel workers (and the
   engine before it) do: a fresh map and recorder per execution,
   absorbed with [absorb_tagged]. Both must end on equal maps, see the
   same per-execution novelty, and stop on a plateau at the same
   execution. *)
let shard_entry () = Catalog.Bug_catalog.find "ChaintableDuplicateBackendRequest"

let shard_config ?prior_coverage ?(start_iteration = 0) ?coverage_plateau
    ?plateau_family ~seed ~executions () =
  let e = shard_entry () in
  {
    E.default_config with
    strategy = E.Fuzz { corpus_cap = 32 };
    seed;
    max_executions = executions;
    max_steps = e.Catalog.Bug_catalog.max_steps;
    faults = e.Catalog.Bug_catalog.faults;
    reduce = E.Hb_track;
    fuzz_energy = true;
    fuzz_mutate_faults = true;
    prior_coverage;
    start_iteration;
    coverage_plateau;
    plateau_family;
  }

let engine_coverage cfg =
  let e = shard_entry () in
  match
    E.run ~monitors:e.Catalog.Bug_catalog.monitors cfg
      e.Catalog.Bug_catalog.fixed_harness
  with
  | E.No_bug ({ E.coverage = Some cov; _ } as st) -> (cov, st)
  | E.No_bug _ -> Alcotest.fail "engine run collected no coverage"
  | E.Bug_found _ -> Alcotest.fail "bug on the fixed harness"

let shard_run (cfg : E.config) =
  let e = shard_entry () in
  let factory =
    Fuzz.factory ~seed:cfg.E.seed ~corpus_cap:32 ~energy:true
      ~mutate_faults:true ()
  in
  let acc = Coverage.create () in
  Option.iter (fun p -> ignore (Coverage.absorb ~into:acc p)) cfg.E.prior_coverage;
  let novelties = ref [] and no_gain = ref 0 in
  let rec go i =
    if i >= cfg.E.max_executions then i
    else
      match factory.Psharp.Strategy.fresh ~iteration:(cfg.E.start_iteration + i) with
      | None -> i
      | Some strategy ->
        let hb = Psharp.Hb.create () and exec = Coverage.create () in
        let rcfg =
          {
            R.default_config with
            R.max_steps = cfg.E.max_steps;
            faults = cfg.E.faults;
            coverage = Some exec;
            hb = Some hb;
          }
        in
        let r =
          R.execute rcfg strategy ~monitors:(e.Catalog.Bug_catalog.monitors ())
            ~name:"Harness" e.Catalog.Bug_catalog.fixed_harness
        in
        Coverage.note_hb exec ~fingerprint:(Psharp.Hb.canonical_fingerprint hb);
        Coverage.note_execution exec ~fingerprint:(Coverage.fingerprint r.R.choices);
        let novelty = Coverage.absorb_tagged ~into:acc exec in
        novelties := novelty :: !novelties;
        let gain =
          match cfg.E.plateau_family with
          | None -> Coverage.novel_core novelty
          | Some fam -> Coverage.novel_in novelty fam
        in
        if gain then no_gain := 0 else incr no_gain;
        Option.iter
          (fun f -> f ~trace:r.R.choices ~novelty)
          factory.Psharp.Strategy.feedback;
        if r.R.bug <> None then Alcotest.fail "bug on the fixed harness";
        (match cfg.E.coverage_plateau with
         | Some n when !no_gain >= n -> i + 1
         | _ -> go (i + 1))
  in
  let executions = go 0 in
  (acc, List.rev !novelties, executions)

(* The engine's novelty of execution [k], read from the growth of its
   totals between the runs of the first [k] and [k + 1] executions (the
   runs are deterministic prefixes of each other). *)
let engine_novelties cfg n =
  let totals k =
    Coverage.totals (fst (engine_coverage { cfg with E.max_executions = k }))
  in
  List.init n (fun k ->
      let a = totals k and b = totals (k + 1) in
      Coverage.
        {
          new_states = b.machine_states - a.machine_states;
          new_events = b.event_types - a.event_types;
          new_triples = b.transition_triples - a.transition_triples;
          new_branches = b.branch_outcomes - a.branch_outcomes;
          new_faults = b.fault_points - a.fault_points;
          new_histories = b.history_points - a.history_points;
          new_hb = b.partial_orders - a.partial_orders;
        })

let check_same_run name cfg ~prefix =
  let direct, _ = engine_coverage cfg in
  let shard, novelties, _ = shard_run cfg in
  Alcotest.(check bool) (name ^ ": direct map equals shard-and-absorb map") true
    (Coverage.equal direct shard);
  Alcotest.(check string) (name ^ ": same schedule digest")
    (Coverage.schedule_digest shard) (Coverage.schedule_digest direct);
  Alcotest.(check bool) (name ^ ": same per-execution novelty") true
    (engine_novelties cfg prefix = List.filteri (fun i _ -> i < prefix) novelties)

let test_direct_equals_shard () =
  check_same_run "fresh" (shard_config ~seed:7L ~executions:120 ()) ~prefix:30;
  (* a campaign resume: the accumulator starts from an earlier run's map *)
  let prior, _ = engine_coverage (shard_config ~seed:3L ~executions:60 ()) in
  check_same_run "resume"
    (shard_config ~prior_coverage:prior ~start_iteration:60 ~seed:7L
       ~executions:80 ())
    ~prefix:20

let test_direct_plateau_matches_shard () =
  List.iter
    (fun fam ->
      let cfg =
        shard_config ~coverage_plateau:6 ~plateau_family:fam ~seed:7L
          ~executions:400 ()
      in
      let direct, st = engine_coverage cfg in
      let shard, _, executions = shard_run cfg in
      Alcotest.(check bool) "plateaued" true st.E.plateaued;
      Alcotest.(check int)
        (Coverage.family_kind_to_string fam ^ " plateau at the same execution")
        executions st.E.executions;
      Alcotest.(check bool) "equal maps at the plateau" true
        (Coverage.equal direct shard))
    [ Coverage.Triple; Coverage.State ]

let suite =
  [
    Alcotest.test_case "absorb is order-independent" `Quick
      test_absorb_order_independent;
    Alcotest.test_case "absorb novelty excludes fingerprints" `Quick
      test_absorb_novelty;
    Alcotest.test_case "absorb_tagged reports per-family novelty" `Quick
      test_absorb_tagged_families;
    Alcotest.test_case "family kind strings round-trip" `Quick
      test_family_kind_strings;
    Alcotest.test_case "fingerprint is pure" `Quick test_fingerprint_pure;
    Alcotest.test_case "run collects coverage, files bug fingerprint" `Quick
      test_run_collects_coverage_and_files_bug_fingerprint;
    Alcotest.test_case "parallel coverage = sequential" `Quick
      test_parallel_coverage_matches_sequential;
    Alcotest.test_case "plateau stops early" `Quick test_plateau_stops_early;
    Alcotest.test_case "explore never stops at bugs" `Quick
      test_explore_never_stops_at_bugs;
    Alcotest.test_case "fuzz finds race deterministically" `Quick
      test_fuzz_finds_race_deterministically;
    Alcotest.test_case "fuzz ignores workers" `Quick test_fuzz_ignores_workers;
    Alcotest.test_case "mutation operators are distinguishable" `Quick
      test_mutation_operators_distinguishable;
    Alcotest.test_case "weighted pick follows energies" `Quick
      test_weighted_pick_distribution;
    Alcotest.test_case "exchange dedups and counts drops" `Quick
      test_exchange_dedups_and_counts_drops;
    Alcotest.test_case "plateau family keys the bound" `Quick
      test_plateau_family_keys_the_bound;
    Alcotest.test_case "fuzz v2 is deterministic" `Quick
      test_fuzz_v2_deterministic;
    Alcotest.test_case "pp_outcome shows steps and coverage" `Quick
      test_pp_outcome_shows_steps_and_coverage;
    Alcotest.test_case "to_json is well-formed" `Quick test_to_json_wellformed;
    Alcotest.test_case "direct recording = shard-and-absorb" `Quick
      test_direct_equals_shard;
    Alcotest.test_case "direct plateau stop = shard-and-absorb" `Quick
      test_direct_plateau_matches_shard;
  ]
