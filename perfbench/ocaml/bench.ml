(* Measurement program behind perfbench/run.py.

   [bench.exe setup --workload W --seed N] builds the workload's jobs and
   runs one untimed warm-up execution per harness, then exits. run.py
   times the whole process: that is the set-up a CLI user pays per run.

   [bench.exe run --workload W --seed N --seconds S --trace 0|1] repeats
   the workload's fixed work (a "pass") through [Engine.run] until S
   seconds are spent. It then replays the pass through the traced driver,
   which calls the same public functions the engine calls, in the same
   order, and times each layer from outside. With [--trace 1] untraced,
   traced and spans-only passes alternate for the whole budget. The
   program prints one JSON object of raw measurements; run.py derives the
   metrics from it and checks it.

   Every workload is a closed loop with one sequential caller: each
   execution starts when the previous one ends. *)

module E = Psharp.Engine
module R = Psharp.Runtime
module S = Psharp.Strategy
module Cov = Psharp.Coverage
module Hb = Psharp.Hb
module Cat = Catalog.Bug_catalog

let now () = Int64.to_int (Monotonic_clock.now ())

(* SplitMix64 finalizer over (a, b), kept non-negative. The strategies
   derive execution seeds as [seed + 2 * iteration + 1], so neighbouring
   workload seeds would otherwise explore shifted copies of one stream. *)
let mix a b =
  let open Int64 in
  let z = add (mul a 0x9E3779B97F4A7C15L) (of_int b) in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logand (logxor z (shift_right_logical z 31)) 0x3FFF_FFFF_FFFF_FFFFL

(* --- Jobs ------------------------------------------------------------- *)

type history =
  (Chaintable.Linearize.pending, Chaintable.Table_types.outcome) Psharp.History.t

(* A job spends a fixed execution budget. A hunting job runs hunts back to
   back, each with a fresh seed: a hunt tries each harness in turn with up
   to [hunt_budget] executions until one finds the bug (the way
   [bench table2] falls back to the custom harness). A clean job is one
   run of a fixed harness that must stay clean for its whole budget. *)
type job = {
  name : string;
  label : string;  (* strategy *)
  seed : int64;
  budget : int;
  hunt_budget : int;
  config : E.config;
  monitors : unit -> Psharp.Monitor.t list;
  harnesses : (string * (R.ctx -> unit)) list;
  expect : [ `Bug of [ `Safety | `Liveness ] | `Clean ];
  history : history option ref option;
      (* the history of the last execution, for the traced lin check *)
}

let table2_budget = 400
let lin_budget = 3_000

let job (e : Cat.entry) ~seed ~index ~name ~label ~budget ~hunt_budget
    ?(history = None) ~expect strategy harnesses =
  {
    name;
    label;
    seed = mix seed index;
    budget;
    hunt_budget;
    config =
      {
        E.default_config with
        strategy;
        max_steps = e.Cat.max_steps;
        faults = e.Cat.faults;
        clock = e.Cat.clock;
      };
    monitors = e.Cat.monitors;
    harnesses;
    expect;
    history;
  }

let table2_jobs ~seed =
  List.concat_map
    (fun (e : Cat.entry) ->
      [ ("random", E.Random); ("pct", E.Pct { change_points = 2 }) ]
      |> List.map (fun (label, strategy) ->
             ( e,
               label,
               strategy,
               ("default", e.Cat.harness)
               :: (match e.Cat.custom_harness with
                  | Some h -> [ ("custom", h) ]
                  | None -> []) )))
    Cat.table2
  |> List.mapi (fun index (e, label, strategy, harnesses) ->
         job e ~seed ~index ~name:e.Cat.name ~label ~budget:table2_budget
           ~hunt_budget:(table2_budget / 2) ~expect:(`Bug e.Cat.kind) strategy
           harnesses)

(* Fixed shardkv under its catalog crash+delay faults on the virtual clock,
   and fixed chaintable judged by the generic checker (the catalog's
   [lin_fixed], with the history handed in so the traced driver can time
   the check on it). A shardkv node can wait forever on a crashed peer, so
   at some seeds an execution ends with every machine blocked; here that
   ends the execution without a report, as a clean job must not fail. The
   unequal budgets keep the median execution inside the shardkv group. *)
let lin_jobs ~seed =
  let first cs = List.find (fun e -> e.Cat.case_study = cs) Cat.all in
  let kv = first Cat.Cs_shardkv and ct = first Cat.Cs_migrating_table in
  let last = ref None in
  let chaintable_lin ctx =
    let h = Psharp.History.create ~on_complete:(R.history_point ctx) () in
    last := Some h;
    Chaintable.Harness.test ~oracle:`Lin ~history:h () ctx
  in
  let fixed index e name budget ?history harness =
    job e ~seed ~index ~name ~label:"random" ~budget ~hunt_budget:budget
      ?history ~expect:`Clean E.Random [ ("fixed", harness) ]
  in
  let kv_job = fixed 0 kv "ShardkvFixed" lin_budget kv.Cat.fixed_harness in
  [
    { kv_job with config = { kv_job.config with deadlock_is_bug = false } };
    fixed 1 ct "ChaintableLinFixed" (lin_budget / 2) ~history:(Some last)
      chaintable_lin;
  ]

(* The fixed chaintable and fabric harnesses of two fault-only bugs, each
   with its entry's fault spec. The fixed vnext harness of
   ExtentNodeCrashLosesBinding is left out: fuzz v2 finds a liveness
   violation on it at some seeds, with or without its crash spec
   (RepairMonitor stays hot in Repairing), and a clean job must not fail.
   The unequal budgets keep the median execution inside the chaintable
   group instead of on the edge between the two harnesses' times. *)
let fuzz_bugs =
  [ ("ChaintableDuplicateBackendRequest", 4_000); ("FabricCrashSilentRestart", 2_000) ]

let fuzz_jobs ~seed =
  List.mapi
    (fun index (name, budget) ->
      let e = Cat.find name in
      let j =
        job e ~seed ~index ~name:(name ^ "/fixed") ~label:"fuzz-v2" ~budget
          ~hunt_budget:budget ~expect:`Clean
          (E.Fuzz { corpus_cap = 32 })
          [ ("fixed", e.Cat.fixed_harness) ]
      in
      {
        j with
        config =
          {
            j.config with
            reduce = E.Hb_track;
            fuzz_energy = true;
            fuzz_mutate_faults = true;
          };
      })
    fuzz_bugs

let jobs_of workload ~seed =
  match workload with
  | "table2-hunt" -> table2_jobs ~seed
  | "lin-short" -> lin_jobs ~seed
  | "fuzz-observed" -> fuzz_jobs ~seed
  | w -> invalid_arg ("unknown workload " ^ w)

(* --- Hunting ------------------------------------------------------------ *)

(* What one [Engine.run] (or its traced replay) reports. *)
type attempt = {
  executions : int;
  steps : int;
  bug : (Psharp.Error.kind * int) option;  (* kind, #NDC *)
  stopped_early : bool;  (* no bug, yet fewer executions than asked *)
  digest : string;  (* schedule digest of the coverage, when collected *)
}

type outcome = {
  job : job;
  mutable executions : int;
  mutable steps : int;
  mutable hunts : int;  (* hunts that found their bug or spent their budget *)
  mutable found : int;
  mutable digests : string list;
  mutable first : string;  (* the first hunt: found | custom | missed | clean *)
  mutable first_executions : int;  (* of the run that found the bug *)
  mutable first_ndc : int;
  mutable first_seconds : float;
}

let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

let kind_class = function
  | Psharp.Error.Liveness_violation _ -> `Liveness
  | _ -> `Safety

let class_name = function `Liveness -> "liveness" | `Safety -> "safety"

(* Spends [job]'s budget through [run], which performs one
   [Engine.run]-equivalent. The untraced and the traced pass both go
   through here, so they make the same sequence of runs. *)
let hunt_job (run : job -> E.config -> (R.ctx -> unit) -> attempt) job =
  let o =
    {
      job;
      executions = 0;
      steps = 0;
      hunts = 0;
      found = 0;
      digests = [];
      first = "";
      first_executions = 0;
      first_ndc = 0;
      first_seconds = 0.;
    }
  in
  let t0 = now () in
  let k = ref 0 and stopped = ref false in
  (* A run that stops short of its budget without a bug ends the job, so a
     stalled run cannot spin on the rest of the budget. *)
  while o.executions < job.budget && not !stopped do
    let config = { job.config with E.seed = mix job.seed !k } in
    let rec attempt = function
      | [] -> `Missed
      | (harness, body) :: rest ->
        let n = min job.hunt_budget (job.budget - o.executions) in
        if n = 0 then `Cut
        else begin
          let a = run job { config with E.max_executions = n } body in
          o.executions <- o.executions + a.executions;
          o.steps <- o.steps + a.steps;
          o.digests <- a.digest :: o.digests;
          if a.stopped_early then begin
            problem "%s/%s: ran %d of %d executions" job.name job.label
              a.executions n;
            stopped := true
          end;
          match a.bug with
          | Some (kind, ndc) -> `Found (harness, kind, ndc, a.executions)
          | None when n < job.hunt_budget || !stopped -> `Cut
          | None -> attempt rest
        end
    in
    let result = attempt job.harnesses in
    (match (result, job.expect) with
     | `Found (_, kind, _, _), `Clean ->
       problem "%s: bug on a fixed harness: %s" job.name
         (Psharp.Error.kind_to_string kind)
     | `Found (_, kind, _, _), `Bug expected when kind_class kind <> expected ->
       problem "%s/%s: found a %s bug, the catalog says %s" job.name job.label
         (class_name (kind_class kind)) (class_name expected)
     | _ -> ());
    (match result with
     | `Found _ ->
       o.hunts <- o.hunts + 1;
       o.found <- o.found + 1
     | `Missed -> o.hunts <- o.hunts + 1
     | `Cut -> ());
    if !k = 0 then begin
      o.first_seconds <- float (now () - t0) /. 1e9;
      match result with
      | `Found (harness, _, ndc, executions) ->
        o.first <- (if harness = "custom" then "custom" else "found");
        o.first_executions <- executions;
        o.first_ndc <- ndc
      | `Missed | `Cut ->
        o.first <- (match job.expect with `Clean -> "clean" | `Bug _ -> "missed")
    end;
    incr k
  done;
  o

(* --- Untraced pass ---------------------------------------------------- *)

(* The engine calls the [monitors] factory once right before each
   [Runtime.execute]; consecutive calls delimit executions. Samples live
   outside the OCaml heap so recording them neither allocates nor moves
   the heap peak. *)
module Samples = struct
  let cap = 1 lsl 21
  let data = Bigarray.Array1.create Bigarray.int Bigarray.c_layout cap
  let n = ref 0
  let prev = ref (-1)

  let push d =
    if !n < cap then begin
      Bigarray.Array1.unsafe_set data !n d;
      incr n
    end

  let mark () =
    let t = now () in
    if !prev >= 0 then push (t - !prev);
    prev := t

  let close () =
    if !prev >= 0 then push (now () - !prev);
    prev := -1
end

let engine_run job config body =
  let monitors () =
    Samples.mark ();
    job.monitors ()
  in
  let out = E.run ~monitors config body in
  Samples.close ();
  let digest (st : E.stats) =
    match st.E.coverage with Some c -> Cov.schedule_digest c | None -> ""
  in
  match out with
  | E.Bug_found (report, st) ->
    {
      executions = st.E.executions;
      steps = st.E.total_steps;
      bug =
        Some
          ( report.Psharp.Error.kind,
            Psharp.Trace.length report.Psharp.Error.trace );
      stopped_early = false;
      digest = digest st;
    }
  | E.No_bug st ->
    {
      executions = st.E.executions;
      steps = st.E.total_steps;
      bug = None;
      stopped_early = st.E.executions < config.E.max_executions;
      digest = digest st;
    }

type pass = {
  wall_ns : int;
  outcomes : outcome list;
  minor_words : float;
  promoted_words : float;
}

let untraced_pass jobs =
  let minor0, promoted0, _ = Gc.counters () in
  let t0 = now () in
  let outcomes = List.map (hunt_job engine_run) jobs in
  let wall_ns = now () - t0 in
  let minor1, promoted1, _ = Gc.counters () in
  {
    wall_ns;
    outcomes;
    minor_words = minor1 -. minor0;
    promoted_words = promoted1 -. promoted0;
  }

let warm_up jobs =
  List.iter
    (fun job ->
      List.iter
        (fun (_, body) ->
          ignore
            (E.run ~monitors:job.monitors
               { job.config with E.seed = job.seed; max_executions = 1 }
               body))
        job.harnesses)
    jobs

(* --- Traced driver ---------------------------------------------------- *)

type span = { mutable ns : int }

type trace = {
  light : bool;
      (* spans only: picks and draws are neither wrapped nor counted, and
         the GC is not read per execution *)
  fresh : span;
  runtime : span;
  strategy : span;  (* every pick and draw *)
  cov_fingerprint : span;
  absorb : span;
  hb_fingerprint : span;
  feedback : span;
  lin : span;
  mutable picks : int;
  mutable draws : int;
  mutable execs : int;
  mutable steps : int;
  mutable choices : int;
  mutable runtime_minor : float;
  mutable runtime_promoted : float;
  mutable novel_core : int;
  mutable novel_hb : int;
  mutable happenings : int;
  mutable faults : int;
  mutable vtime : int;
  mutable lin_ops : int;
  mutable triples : int;
  mutable partial_orders : int;
  mutable walls : int list;  (* per pass, latest first *)
  mutable spans : int list;
      (* per pass, latest first: the time inside the engine's calls *)
}

let span () = { ns = 0 }

let new_trace ~light =
  {
    light;
    fresh = span ();
    runtime = span ();
    strategy = span ();
    cov_fingerprint = span ();
    absorb = span ();
    hb_fingerprint = span ();
    feedback = span ();
    lin = span ();
    picks = 0;
    draws = 0;
    execs = 0;
    steps = 0;
    choices = 0;
    runtime_minor = 0.;
    runtime_promoted = 0.;
    novel_core = 0;
    novel_hb = 0;
    happenings = 0;
    faults = 0;
    vtime = 0;
    lin_ops = 0;
    triples = 0;
    partial_orders = 0;
    walls = [];
    spans = [];
  }

(* A span is opened at every layer boundary of every execution, also when
   the workload leaves that layer off: the span then times the empty
   boundary. *)
let timed s f =
  let t0 = now () in
  let r = f () in
  s.ns <- s.ns + (now () - t0);
  r

(* Times and counts each pick and draw; allocation-free per call. *)
let wrap tr (st : S.t) =
  {
    st with
    S.next_schedule =
      (fun ~enabled ~n ~step ->
        let t0 = now () in
        let r = st.S.next_schedule ~enabled ~n ~step in
        tr.strategy.ns <- tr.strategy.ns + (now () - t0);
        tr.picks <- tr.picks + 1;
        r);
    next_bool =
      (fun ~step ->
        let t0 = now () in
        let r = st.S.next_bool ~step in
        tr.strategy.ns <- tr.strategy.ns + (now () - t0);
        tr.draws <- tr.draws + 1;
        r);
    next_int =
      (fun ~bound ~step ->
        let t0 = now () in
        let r = st.S.next_int ~bound ~step in
        tr.strategy.ns <- tr.strategy.ns + (now () - t0);
        tr.draws <- tr.draws + 1;
        r);
  }

(* The factory [Engine.run] builds for these configs. *)
let factory_of (c : E.config) =
  match c.E.strategy with
  | E.Random -> Psharp.Random_strategy.factory ~seed:c.E.seed
  | E.Pct { change_points } ->
    Psharp.Pct_strategy.factory ~seed:c.E.seed ~change_points
      ~max_steps:c.E.max_steps ()
  | E.Fuzz { corpus_cap } ->
    Psharp.Fuzz_strategy.factory ~seed:c.E.seed ~corpus_cap
      ~energy:c.E.fuzz_energy ~mutate_faults:c.E.fuzz_mutate_faults ()
  | _ -> invalid_arg "factory_of: strategy not used by the benchmark"

(* Words one [Gc.counters] call allocates; subtracted from each reading. *)
let counters_words =
  let m0, _, _ = Gc.counters () in
  let m1, _, _ = Gc.counters () in
  m1 -. m0

let lin_model = Chaintable.Lin_oracle.model Chaintable.Workload.initial_rows

(* One [Engine.run] replayed call by call: the same factory, the same
   per-execution runtime config, then hb, coverage and feedback in the
   engine's order. *)
let traced_run tr job (c : E.config) body =
  let factory = factory_of c in
  let acc = Option.map (fun _ -> Cov.create ()) factory.S.feedback in
  let rec iterate i steps =
    if i >= c.E.max_executions then (i, steps, None)
    else
      match timed tr.fresh (fun () -> factory.S.fresh ~iteration:i) with
      | None -> (i, steps, None)
      | Some strategy ->
        let hb = if c.E.reduce = E.Hb_track then Some (Hb.create ()) else None in
        let exec_cov = Option.map (fun _ -> Cov.create ()) acc in
        let rcfg =
          {
            R.max_steps = c.E.max_steps;
            liveness_grace = c.E.liveness_grace;
            deadlock_is_bug = c.E.deadlock_is_bug;
            collect_log = false;
            coverage = exec_cov;
            hb;
            faults = c.E.faults;
            deadline = None;
            clock = c.E.clock;
            scenario = None;
          }
        in
        let strategy = if tr.light then strategy else wrap tr strategy in
        let monitors = job.monitors () in
        let minor0, promoted0, _ =
          if tr.light then (0., 0., 0.) else Gc.counters ()
        in
        let t0 = now () in
        let result = R.execute rcfg strategy ~monitors ~name:"Harness" body in
        tr.runtime.ns <- tr.runtime.ns + (now () - t0);
        if not tr.light then begin
          let minor1, promoted1, _ = Gc.counters () in
          tr.runtime_minor <-
            tr.runtime_minor +. (minor1 -. minor0 -. counters_words);
          tr.runtime_promoted <-
            tr.runtime_promoted +. (promoted1 -. promoted0)
        end;
        tr.execs <- tr.execs + 1;
        tr.steps <- tr.steps + result.R.steps;
        tr.choices <- tr.choices + Psharp.Trace.length result.R.choices;
        tr.faults <- tr.faults + result.R.faults_injected;
        tr.vtime <- tr.vtime + result.R.final_time;
        timed tr.hb_fingerprint (fun () ->
            match (hb, exec_cov) with
            | Some h, Some cov ->
              tr.happenings <- tr.happenings + Hb.happenings h;
              Cov.note_hb cov ~fingerprint:(Hb.canonical_fingerprint h)
            | _ -> ());
        timed tr.cov_fingerprint (fun () ->
            match exec_cov with
            | Some cov ->
              Cov.note_execution cov
                ~fingerprint:(Cov.fingerprint result.R.choices)
            | None -> ());
        let novelty =
          timed tr.absorb (fun () ->
              match (acc, exec_cov) with
              | Some into, Some cov -> Some (Cov.absorb_tagged ~into cov)
              | _ -> None)
        in
        (match novelty with
         | Some n ->
           if Cov.novel_core n then tr.novel_core <- tr.novel_core + 1;
           if Cov.novel_in n Cov.Hb then tr.novel_hb <- tr.novel_hb + 1
         | None -> ());
        timed tr.feedback (fun () ->
            match (novelty, factory.S.feedback) with
            | Some novelty, Some f -> f ~trace:result.R.choices ~novelty
            | _ -> ());
        timed tr.lin (fun () ->
            match job.history with
            | Some ({ contents = Some h } as cell) ->
              cell := None;
              tr.lin_ops <- tr.lin_ops + Psharp.History.size h;
              (match Psharp.Linearizability.check lin_model h with
               | Psharp.Linearizability.Linearizable _ -> ()
               | Psharp.Linearizability.Illegal msg ->
                 problem "%s: history not linearizable: %s" job.name msg)
            | _ -> ());
        let steps = steps + result.R.steps in
        match result.R.bug with
        | Some kind ->
          (i + 1, steps, Some (kind, Psharp.Trace.length result.R.choices))
        | None -> iterate (i + 1) steps
  in
  let executions, steps, bug = iterate 0 0 in
  let digest =
    match acc with
    | Some a ->
      let t = Cov.totals a in
      tr.triples <- tr.triples + t.Cov.transition_triples;
      tr.partial_orders <- tr.partial_orders + t.Cov.partial_orders;
      Cov.schedule_digest a
    | None -> ""
  in
  {
    executions;
    steps;
    bug;
    stopped_early = bug = None && executions < c.E.max_executions;
    digest;
  }

(* Replays the pass and checks it against the untraced outcomes: the same
   executions, steps and bugs and, where coverage is collected, the same
   schedule digests. *)
let engine_calls_ns tr =
  tr.fresh.ns + tr.runtime.ns + tr.feedback.ns + tr.cov_fingerprint.ns
  + tr.absorb.ns + tr.hb_fingerprint.ns

let traced_pass tr (outcomes : outcome list) =
  let t0 = now () and calls0 = engine_calls_ns tr in
  List.iter
    (fun (o : outcome) ->
      let t = hunt_job (traced_run tr) o.job in
      if
        t.executions <> o.executions || t.steps <> o.steps
        || t.found <> o.found || t.digests <> o.digests
      then
        problem
          "%s/%s: the traced driver ran %d executions, %d steps, %d bugs; \
           the engine %d, %d, %d%s"
          o.job.name o.job.label t.executions t.steps t.found o.executions
          o.steps o.found
          (if t.digests <> o.digests then " (schedule digests differ)" else ""))
    outcomes;
  tr.walls <- (now () - t0) :: tr.walls;
  tr.spans <- (engine_calls_ns tr - calls0) :: tr.spans

(* Cost of wrapping one pick or draw: what the wrapper adds around the
   call ([wrap_ns]) and what its own span reads for an empty call
   ([floor_ns]); the best of three rounds. *)
let calibrate () =
  let noop =
    {
      S.name = "noop";
      next_schedule = (fun ~enabled:_ ~n:_ ~step -> step);
      next_bool = (fun ~step -> step land 1 = 0);
      next_int = (fun ~bound ~step -> step mod bound);
    }
  in
  let k = 200_000 in
  let round () =
    let tr = new_trace ~light:false in
    let w = wrap tr noop in
    let t0 = now () in
    for i = 1 to k do
      ignore (Sys.opaque_identity (noop.S.next_bool ~step:i))
    done;
    let t1 = now () in
    for i = 1 to k do
      ignore (Sys.opaque_identity (w.S.next_bool ~step:i))
    done;
    let t2 = now () in
    (float (t2 - t1 - (t1 - t0)) /. float k, float tr.strategy.ns /. float k)
  in
  let rounds = List.init 3 (fun _ -> round ()) in
  List.fold_left
    (fun (w, f) (w', f') -> (Float.min w w', Float.min f f'))
    (List.hd rounds) rounds

(* --- Output ------------------------------------------------------------ *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> json_string k ^ ": " ^ v) fields)
  ^ "}"

let arr items = "[" ^ String.concat ", " items ^ "]"
let int = string_of_int
let num f = Printf.sprintf "%.17g" f
let sum f l = List.fold_left (fun a x -> a + f x) 0 l

let pass_json (p : pass) =
  obj
    [
      ("wall_ns", int p.wall_ns);
      ("execs", int (sum (fun (o : outcome) -> o.executions) p.outcomes));
      ("steps", int (sum (fun (o : outcome) -> o.steps) p.outcomes));
      ("minor_words", num p.minor_words);
      ("promoted_words", num p.promoted_words);
    ]

let outcome_json (o : outcome) =
  obj
    [
      ("bug", json_string o.job.name);
      ("strategy", json_string o.job.label);
      ("expect", json_string (match o.job.expect with `Clean -> "clean" | `Bug _ -> "bug"));
      ("result", json_string o.first);
      ("executions", int o.first_executions);
      ("ndc", int o.first_ndc);
      ("seconds", num o.first_seconds);
      ("job_executions", int o.executions);
      ("hunts", int o.hunts);
      ("found", int o.found);
    ]

let trace_json tr ~wrap_ns ~floor_ns =
  let s x = int x.ns in
  obj
    [
      ("walls_ns", arr (List.rev_map int tr.walls));
      ("spans_ns", arr (List.rev_map int tr.spans));
      ("execs", int tr.execs);
      ("steps", int tr.steps);
      ("choices", int tr.choices);
      ("picks", int tr.picks);
      ("draws", int tr.draws);
      ("strategy_ns", s tr.strategy);
      ("runtime_ns", s tr.runtime);
      ("runtime_minor_words", num tr.runtime_minor);
      ("runtime_promoted_words", num tr.runtime_promoted);
      ("fresh_ns", s tr.fresh);
      ("feedback_ns", s tr.feedback);
      ("cov_fingerprint_ns", s tr.cov_fingerprint);
      ("absorb_ns", s tr.absorb);
      ("hb_fingerprint_ns", s tr.hb_fingerprint);
      ("lin_ns", s tr.lin);
      ("lin_ops", int tr.lin_ops);
      ("novel_core", int tr.novel_core);
      ("novel_hb", int tr.novel_hb);
      ("happenings", int tr.happenings);
      ("faults", int tr.faults);
      ("vtime", int tr.vtime);
      ("triples", int tr.triples);
      ("partial_orders", int tr.partial_orders);
      ("wrap_ns", num wrap_ns);
      ("floor_ns", num floor_ns);
    ]

(* --- Main --------------------------------------------------------------- *)

let run ~workload ~seed ~seconds ~traced =
  let jobs = jobs_of workload ~seed in
  warm_up jobs;
  let wrap_ns, floor_ns = if traced then calibrate () else (0., 0.) in
  let tr = new_trace ~light:false and light = new_trace ~light:true in
  let started = now () in
  let budget_ns = int_of_float (seconds *. 1e9) in
  (* Passes run while the next one is expected to end within the budget;
     at least one runs. The heap peak is read after the first, whose work
     is the same in every run at this seed. *)
  let heap_peak_words = ref 0 in
  let rec loop passes =
    let p = untraced_pass jobs in
    if passes = [] then heap_peak_words := (Gc.quick_stat ()).Gc.top_heap_words;
    if traced then begin
      traced_pass tr p.outcomes;
      traced_pass light p.outcomes
    end;
    let passes = p :: passes in
    let elapsed = now () - started in
    if elapsed + (elapsed / List.length passes) > budget_ns then List.rev passes
    else loop passes
  in
  let passes = loop [] in
  let first = List.hd passes in
  if not traced then traced_pass tr first.outcomes;
  let samples = List.init !Samples.n (fun i -> int Samples.data.{i}) in
  print_string
    (obj
       [
         ("workload", json_string workload);
         ("seed", Int64.to_string seed);
         ("word_bytes", int (Sys.word_size / 8));
         ("passes", arr (List.map pass_json passes));
         ("exec_ns", arr samples);
         ("heap_peak_words", int !heap_peak_words);
         ("jobs", arr (List.map outcome_json first.outcomes));
         ("problems", arr (List.rev_map json_string !problems));
         ("traced", trace_json tr ~wrap_ns ~floor_ns);
         ("light", trace_json light ~wrap_ns ~floor_ns);
       ]);
  print_newline ()

let () =
  let usage =
    "bench.exe (setup|run) --workload W --seed N [--seconds S] [--trace 0|1]"
  in
  let mode = ref "" and workload = ref "" and seed = ref 1 in
  let seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ( "--workload",
        Arg.Set_string workload,
        "table2-hunt | lin-short | fuzz-observed" );
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_float seconds, "measurement budget");
      ("--trace", Arg.Set_int trace, "1: alternate untraced and traced passes");
    ]
    (fun m -> mode := m)
    usage;
  let seed = Int64.of_int !seed in
  match !mode with
  | "setup" -> warm_up (jobs_of !workload ~seed)
  | "run" ->
    run ~workload:!workload ~seed ~seconds:!seconds ~traced:(!trace = 1)
  | _ ->
    prerr_endline usage;
    exit 2
