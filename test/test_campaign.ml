(* Campaign persistence (Campaign) and the Coverage save format it rides
   on: canonical round-trips, the strict-parse rejection battery, and the
   headline resume property — a saved-and-resumed run accumulates exactly
   the coverage of an uninterrupted one. *)

module E = Psharp.Engine
module R = Psharp.Runtime
module Coverage = Psharp.Coverage
module Campaign = Psharp.Campaign
module Fuzz = Psharp.Fuzz_strategy
module Trace = Psharp.Trace
module Event = Psharp.Event

type Event.t += Token

let racy_harness ctx =
  let first = ref None in
  let referee =
    R.create ctx ~name:"Referee" (fun rctx ->
        ignore (R.receive rctx);
        R.assert_here rctx (!first = Some "A") "B overtook A")
  in
  let writer name wctx =
    if !first = None then first := Some name;
    ignore (R.nondet ctx);
    R.send wctx referee Token
  in
  ignore (R.create ctx ~name:"A" (writer "A"));
  ignore (R.create ctx ~name:"B" (writer "B"))

let explore_coverage ?campaign ~executions () =
  let config =
    {
      E.default_config with
      max_executions = executions;
      max_steps = 200;
      seed = 11L;
    }
  in
  let config =
    Option.fold campaign ~none:config ~some:(fun c -> Campaign.resume c config)
  in
  let stats = E.explore config racy_harness in
  match stats.E.coverage with
  | Some cov -> cov
  | None -> Alcotest.fail "explore returned no coverage"

(* --- Coverage save format ----------------------------------------------- *)

let test_coverage_save_roundtrip () =
  let cov = explore_coverage ~executions:50 () in
  let s = Coverage.to_save cov in
  let cov2 = Coverage.of_save s in
  Alcotest.(check bool) "loaded map equals original" true
    (Coverage.equal cov cov2);
  Alcotest.(check string) "canonical: re-saving yields identical bytes" s
    (Coverage.to_save cov2)

let test_coverage_save_empty () =
  let cov = Coverage.create () in
  let cov2 = Coverage.of_save (Coverage.to_save cov) in
  Alcotest.(check bool) "empty map round-trips" true (Coverage.equal cov cov2)

let expect_save_failure label data =
  match Coverage.of_save data with
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "%s: corrupted save accepted" label

let test_coverage_save_rejects_corruption () =
  let s = Coverage.to_save (explore_coverage ~executions:20 ()) in
  let lines = String.split_on_char '\n' s in
  let rejoin ls = String.concat "\n" ls in
  expect_save_failure "wrong version"
    (rejoin ("psharp-coverage:99" :: List.tl lines));
  expect_save_failure "empty input" "";
  (* drop the end trailer: whole-line truncation must not load *)
  let no_trailer =
    List.filteri (fun i _ -> i < List.length lines - 2) lines
  in
  expect_save_failure "missing end trailer" (rejoin no_trailer ^ "\n");
  (* duplicate an entry line: duplicate keys must not double-count *)
  (match
     List.find_opt
       (fun l ->
         String.length l > 6
         && List.exists
              (fun p -> String.length l > String.length p
                        && String.sub l 0 (String.length p) = p)
              [ "state\t"; "event\t"; "triple\t" ])
       lines
   with
   | Some entry ->
     let dup =
       List.concat_map (fun l -> if l = entry then [ l; l ] else [ l ]) lines
     in
     expect_save_failure "duplicate entry" (rejoin dup)
   | None -> Alcotest.fail "expected at least one state/event/triple entry");
  (* blank interior line *)
  expect_save_failure "blank line"
    (rejoin (List.hd lines :: "" :: List.tl lines));
  (* content after the end trailer *)
  expect_save_failure "content after end" (s ^ "state\tGhost.Init\t1\n");
  (* non-canonical executions count *)
  let non_canonical =
    List.map
      (fun l ->
        if String.length l > 11 && String.sub l 0 11 = "executions:" then
          "executions:0" ^ String.sub l 11 (String.length l - 11)
        else l)
      lines
  in
  expect_save_failure "non-canonical executions" (rejoin non_canonical)

(* --- Campaign round-trip ------------------------------------------------ *)

let tmp_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      ("psharp_test_campaign_" ^ name)
  in
  let rec rm_rf path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm_rf (Filename.concat path f))
          (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  rm_rf dir;
  dir

let sample_trace choices = Trace.of_list choices

let sample_campaign () =
  let cov = explore_coverage ~executions:20 () in
  let corpus =
    [
      (* a v2 entry with energy and typed novelty tags... *)
      {
        Fuzz.trace =
          sample_trace [ Trace.Schedule 0; Trace.Int 1; Trace.Bool true ];
        energy = Fuzz.energy_of_tags [ Coverage.Fault; Coverage.Hb ];
        tags = [ Coverage.Fault; Coverage.Hb ];
      };
      (* ...and a bare v1-shaped one (energy 1, no tags) *)
      Fuzz.entry_of_trace (sample_trace [ Trace.Schedule 1; Trace.Schedule 0 ]);
    ]
  in
  let witness = sample_trace [ Trace.Schedule 1; Trace.Bool false ] in
  let c = Campaign.create ~harness:"RacyExample" ~seed:11L in
  let c = Campaign.advance c ~executions:20 ~coverage:cov ~corpus in
  let c = Campaign.record_witness c ~kind:"assertion failed" ~trace:witness in
  (* a second witness of the same kind must not displace the first *)
  Campaign.record_witness c ~kind:"assertion failed"
    ~trace:(sample_trace [ Trace.Schedule 0 ])

(* Render a corpus entry fully — energy, tags and trace — so equality
   checks cover the v2 metadata, not just the schedules. *)
let corpus_to_strings =
  List.map (fun (e : Fuzz.corpus_entry) ->
      Printf.sprintf "%d|%s|%s" e.Fuzz.energy
        (String.concat ","
           (List.map Coverage.family_kind_to_string e.Fuzz.tags))
        (Trace.to_string e.Fuzz.trace))

(* Every component of a loaded campaign, rendered. *)
let render (c : Campaign.t) =
  Printf.sprintf "%s|%Ld|%d|%s|%s|%s" c.Campaign.harness c.Campaign.seed
    c.Campaign.executions
    (Coverage.to_save c.Campaign.coverage)
    (String.concat ";" (corpus_to_strings c.Campaign.corpus))
    (String.concat ";"
       (List.map
          (fun (k, t) -> k ^ "=" ^ Trace.to_string t)
          c.Campaign.witnesses))

let test_campaign_roundtrip () =
  let dir = tmp_dir "roundtrip" in
  let c = sample_campaign () in
  Campaign.save ~dir c;
  let l = Campaign.load ~dir in
  Alcotest.(check string) "harness" c.Campaign.harness l.Campaign.harness;
  Alcotest.(check int64) "seed" c.Campaign.seed l.Campaign.seed;
  Alcotest.(check int) "executions" 20 l.Campaign.executions;
  Alcotest.(check bool) "coverage" true
    (Coverage.equal c.Campaign.coverage l.Campaign.coverage);
  Alcotest.(check (list string))
    "corpus (energy and tags included)"
    (corpus_to_strings c.Campaign.corpus)
    (corpus_to_strings l.Campaign.corpus);
  Alcotest.(check (list (pair string string)))
    "witnesses (first of each kind)"
    (List.map (fun (k, t) -> (k, Trace.to_string t)) c.Campaign.witnesses)
    (List.map (fun (k, t) -> (k, Trace.to_string t)) l.Campaign.witnesses);
  Alcotest.(check int) "one witness per kind" 1
    (List.length l.Campaign.witnesses);
  (* the layout before generations: the same files in [dir] itself *)
  let gen = Campaign.live_dir ~dir in
  Array.iter
    (fun f -> Sys.rename (Filename.concat gen f) (Filename.concat dir f))
    (Sys.readdir gen);
  Sys.rmdir gen;
  Sys.remove (Filename.concat dir "CURRENT");
  Alcotest.(check string) "a campaign saved without generations loads"
    (render c) (render (Campaign.load ~dir))

let test_campaign_fresh_roundtrip () =
  let dir = tmp_dir "fresh" in
  let c = Campaign.create ~harness:"Empty" ~seed:0L in
  Campaign.save ~dir c;
  let l = Campaign.load ~dir in
  Alcotest.(check int) "zero executions" 0 l.Campaign.executions;
  Alcotest.(check bool) "empty coverage" true
    (Coverage.equal (Coverage.create ()) l.Campaign.coverage);
  Alcotest.(check (list string)) "empty corpus" []
    (corpus_to_strings l.Campaign.corpus)

let test_campaign_load_opt_missing () =
  let dir = tmp_dir "missing" in
  Alcotest.(check bool) "no campaign -> None" true
    (Campaign.load_opt ~dir = None)

(* --- Campaign corruption battery ---------------------------------------- *)

let read_file path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path data =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc data)

let expect_load_failure label dir =
  match Campaign.load ~dir with
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "%s: corrupted campaign loaded" label

(* Each case re-saves a pristine campaign, applies one corruption, and
   expects a loud [Failure]. *)
let test_campaign_rejects_corruption () =
  let dir = tmp_dir "corrupt" in
  let c = sample_campaign () in
  (* each save publishes a new generation: corrupt the one it published *)
  let live name = Filename.concat (Campaign.live_dir ~dir) name in
  let fresh () = Campaign.save ~dir c in
  let corrupt_meta label f =
    fresh ();
    let meta = live "campaign.meta" in
    write_file meta (f (read_file meta));
    expect_load_failure label dir
  in
  corrupt_meta "wrong meta version" (fun s ->
      "psharp-campaign:99" ^ String.sub s 17 (String.length s - 17));
  corrupt_meta "truncated meta (no end line)" (fun s ->
      (* drop the last (end) line *)
      let lines = String.split_on_char '\n' s in
      String.concat "\n"
        (List.filteri (fun i _ -> i < List.length lines - 2) lines)
      ^ "\n");
  corrupt_meta "witness count mismatch" (fun s ->
      let lines = String.split_on_char '\n' s in
      String.concat "\n"
        (List.map
           (fun l -> if l = "witnesses:1" then "witnesses:2" else l)
           lines));
  corrupt_meta "non-canonical executions" (fun s ->
      let lines = String.split_on_char '\n' s in
      String.concat "\n"
        (List.map
           (fun l -> if l = "executions:20" then "executions:020" else l)
           lines));
  corrupt_meta "garbage after end" (fun s -> s ^ "extra:line\n");
  (* the v2 corpus-entry metadata must be as strict as everything else *)
  let corrupt_centry label ~from ~to_ =
    corrupt_meta label (fun s ->
        let lines = String.split_on_char '\n' s in
        if not (List.mem from lines) then
          Alcotest.failf "%s: expected meta line %S" label from;
        String.concat "\n"
          (List.map (fun l -> if l = from then to_ else l) lines))
  in
  let tagged = "centry:" ^ string_of_int (Fuzz.energy_of_tags [ Coverage.Fault; Coverage.Hb ]) ^ ",fault,hb" in
  corrupt_centry "zero corpus energy" ~from:"centry:1" ~to_:"centry:0";
  corrupt_centry "non-canonical corpus energy" ~from:"centry:1" ~to_:"centry:01";
  corrupt_centry "unknown corpus tag" ~from:tagged
    ~to_:"centry:13,fault,warp";
  corrupt_centry "non-canonical corpus tag order" ~from:tagged
    ~to_:"centry:13,hb,fault";
  corrupt_centry "duplicate corpus tag" ~from:tagged
    ~to_:"centry:13,fault,fault,hb";
  corrupt_centry "corpus count vs centry lines" ~from:"corpus:2"
    ~to_:"corpus:3";
  fresh ();
  Sys.remove (live "coverage");
  expect_load_failure "missing coverage file" dir;
  fresh ();
  Sys.remove (Filename.concat (live "corpus") "00001.trace");
  expect_load_failure "missing corpus entry" dir;
  fresh ();
  write_file (Filename.concat (live "corpus") "00000.trace") "not a trace\n";
  expect_load_failure "corrupted corpus entry" dir;
  fresh ();
  write_file (Filename.concat dir "CURRENT") "gen-99999\n";
  expect_load_failure "pointer to a missing generation" dir;
  fresh ();
  write_file (Filename.concat dir "CURRENT") "gen-7\n";
  expect_load_failure "non-canonical pointer" dir

(* --- Crash consistency --------------------------------------------------- *)

exception Crashed

(* A save killed after its k-th write, for every k, with that write
   either whole or torn in half: [load] must return exactly the campaign
   saved before it. The next full save must then publish the new one. *)
let test_campaign_crash_consistency () =
  let dir = tmp_dir "crash" in
  let old_c = sample_campaign () in
  let new_c =
    Campaign.record_witness
      (Campaign.advance old_c ~executions:20
         ~coverage:(explore_coverage ~executions:40 ())
         ~corpus:
           (old_c.Campaign.corpus
           @ [ Fuzz.entry_of_trace (sample_trace [ Trace.Int 3 ]) ]))
      ~kind:"deadlock" ~trace:(sample_trace [ Trace.Schedule 2 ])
  in
  let writes = ref 0 in
  Campaign.save_with ~dir:(tmp_dir "crash_count")
    ~write:(fun path data ->
      incr writes;
      write_file path data)
    new_c;
  Alcotest.(check bool) "a save makes several writes" true (!writes >= 6);
  let expect label c =
    Alcotest.(check string) label (render c) (render (Campaign.load ~dir))
  in
  Campaign.save ~dir old_c;
  for k = 1 to !writes do
    List.iter
      (fun torn ->
        let n = ref 0 in
        (match
           Campaign.save_with ~dir new_c ~write:(fun path data ->
               incr n;
               if !n < k then write_file path data
               else begin
                 write_file path
                   (if torn then String.sub data 0 (String.length data / 2)
                    else data);
                 raise Crashed
               end)
         with
         | () -> Alcotest.failf "write %d: the save did not reach it" k
         | exception Crashed -> ());
        expect (Printf.sprintf "killed at write %d (torn %b)" k torn) old_c)
      [ false; true ]
  done;
  Campaign.save ~dir new_c;
  expect "after a full save" new_c;
  (* and the old generations are gone *)
  Alcotest.(check int) "one generation and its pointer" 2
    (Array.length (Sys.readdir dir))

(* --- Resume equivalence ------------------------------------------------- *)

let test_resume_equals_uninterrupted () =
  (* For an iteration-seeded strategy, 20 executions + save + load + 20
     resumed executions must accumulate exactly the coverage of one
     uninterrupted 40-execution run: execution seeds are a pure function
     of the global iteration, prior coverage seeds the accumulator, and
     absorb is commutative. *)
  let full = explore_coverage ~executions:40 () in
  let first = explore_coverage ~executions:20 () in
  let dir = tmp_dir "resume" in
  let corpus =
    [
      {
        Fuzz.trace = sample_trace [ Trace.Schedule 0; Trace.Bool true ];
        energy = Fuzz.energy_of_tags [ Coverage.Hb ];
        tags = [ Coverage.Hb ];
      };
    ]
  in
  let c = Campaign.create ~harness:"RacyExample" ~seed:11L in
  let c = Campaign.advance c ~executions:20 ~coverage:first ~corpus in
  Campaign.save ~dir c;
  let l = Campaign.load ~dir in
  (* the energy metadata rides along unchanged... *)
  Alcotest.(check (list string))
    "resumed corpus carries energy metadata" (corpus_to_strings corpus)
    (corpus_to_strings l.Campaign.corpus);
  (* ...and the resumed run still accumulates exactly the uninterrupted
     run's coverage *)
  let resumed = explore_coverage ~campaign:l ~executions:20 () in
  Alcotest.(check bool)
    "resumed cumulative coverage = uninterrupted run" true
    (Coverage.equal full resumed)

(* --- Pinned executions to first bug ------------------------------------ *)

(* The two ways a corpus reaches fuzz, pinned to the executions, steps
   and witness length they gave before the corpus went through an
   Exchange hub only. Both hunts run at seed 1 on catalog bugs. *)

let check_bug name ~executions ~steps ~ndc = function
  | E.No_bug _ -> Alcotest.fail (name ^ ": no bug found")
  | E.Bug_found (r, st) ->
    Alcotest.(check int) (name ^ ": executions to bug") executions
      st.E.executions;
    Alcotest.(check int) (name ^ ": total steps") steps st.E.total_steps;
    Alcotest.(check int) (name ^ ": witness choices") ndc
      (Trace.length r.Psharp.Error.trace)

let fuzz_config ?(v2 = false) e ~executions =
  {
    (Catalog.Bug_catalog.config e) with
    E.seed = 1L;
    max_executions = executions;
    strategy = E.Fuzz { corpus_cap = 32 };
    reduce = (if v2 then E.Hb_track else E.No_reduction);
    fuzz_energy = v2;
    fuzz_mutate_faults = v2;
  }

(* A 16-execution warm invocation, saved, loaded and resumed the way
   `hunt --campaign` does it. *)
let test_resumed_fuzz_campaign_pinned () =
  let e = Catalog.Bug_catalog.find "DeleteNoLeaveTombstonesEtag" in
  let run config =
    E.run ~monitors:e.Catalog.Bug_catalog.monitors config
      e.Catalog.Bug_catalog.harness
  in
  let base = fuzz_config e ~executions:3_000 in
  let fresh = Campaign.create ~harness:e.Catalog.Bug_catalog.name ~seed:1L in
  let warm_config =
    Campaign.resume fresh { base with max_executions = 16 }
  in
  let warm =
    match run warm_config with
    | E.No_bug st -> st
    | E.Bug_found _ -> Alcotest.fail "warm invocation found the bug"
  in
  let corpus =
    Fuzz.Exchange.snapshot (Option.get warm_config.E.resume.exchange)
  in
  Alcotest.(check int) "warm corpus" 7 (List.length corpus);
  let dir = tmp_dir "pinned" in
  Campaign.save ~dir
    (Campaign.advance fresh ~executions:warm.E.executions
       ~coverage:(Option.get warm.E.coverage) ~corpus);
  check_bug "resumed" ~executions:36 ~steps:5614 ~ndc:164
    (run (Campaign.resume (Campaign.load ~dir) base))

(* The first 2,000 choices of a starve-network witness, handed to a fuzz
   v2 hunt as its one corpus entry through an exchange hub: a one-worker
   factory pulls the entry before its first draw, and lenient replay of
   the prefix runs into the bug in the first execution. This pins the
   hand-off, not fuzz guidance. *)
let test_seeded_fuzz_v2_pinned () =
  let e = Catalog.Bug_catalog.find "ExtentNodeLivenessViolation" in
  let run config =
    E.run ~monitors:e.Catalog.Bug_catalog.monitors config
      e.Catalog.Bug_catalog.harness
  in
  let scen =
    (Catalog.Scenario_catalog.find "starve-network")
      .Catalog.Scenario_catalog.scenario
  in
  let seeding =
    run
      {
        (Catalog.Bug_catalog.config e) with
        E.seed = 1L;
        max_executions = 20_000;
        faults = Psharp.Scenario.arm scen e.Catalog.Bug_catalog.faults;
        scenario = Some scen;
      }
  in
  check_bug "seeding hunt" ~executions:594 ~steps:1_782_000 ~ndc:5328 seeding;
  let witness =
    match seeding with
    | E.Bug_found (r, _) -> r.Psharp.Error.trace
    | E.No_bug _ -> assert false
  in
  let entry = Fuzz.entry_of_trace (Trace.sub witness 0 2_000) in
  let exchange = Some (Fuzz.Exchange.of_entries [ entry ]) in
  check_bug "seeded" ~executions:1 ~steps:3000 ~ndc:5327
    (run
       {
         (fuzz_config ~v2:true e ~executions:20_000) with
         resume = { E.fresh with exchange };
       })

let suite =
  [
    Alcotest.test_case "coverage: save round-trips canonically" `Quick
      test_coverage_save_roundtrip;
    Alcotest.test_case "coverage: empty map round-trips" `Quick
      test_coverage_save_empty;
    Alcotest.test_case "coverage: corrupted saves rejected" `Quick
      test_coverage_save_rejects_corruption;
    Alcotest.test_case "campaign: directory round-trip" `Quick
      test_campaign_roundtrip;
    Alcotest.test_case "campaign: fresh campaign round-trips" `Quick
      test_campaign_fresh_roundtrip;
    Alcotest.test_case "campaign: load_opt on a missing dir" `Quick
      test_campaign_load_opt_missing;
    Alcotest.test_case "campaign: corrupted campaigns rejected" `Quick
      test_campaign_rejects_corruption;
    Alcotest.test_case "campaign: a save killed at any write keeps the old one"
      `Quick test_campaign_crash_consistency;
    Alcotest.test_case "campaign: resume equals uninterrupted run" `Quick
      test_resume_equals_uninterrupted;
    Alcotest.test_case "campaign: resumed fuzz hunt, pinned" `Quick
      test_resumed_fuzz_campaign_pinned;
    Alcotest.test_case "campaign: corpus-seeded fuzz v2 hunt, pinned" `Quick
      test_seeded_fuzz_v2_pinned;
  ]
