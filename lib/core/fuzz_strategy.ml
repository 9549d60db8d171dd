(* Corpus entries carry the typed novelty that admitted them: which
   coverage families the trace was the first to reach, and the mutation
   energy derived from those tags. Partial-order ([Hb]) and fault-point
   novelty weigh more than the coarse families — they are the signals the
   search is actually steering on. *)
type corpus_entry = {
  trace : Trace.t;
  energy : int;
  tags : Coverage.family_kind list;
}

let tag_weight = function Coverage.Hb -> 8 | Coverage.Fault -> 4 | _ -> 1
let energy_of_tags tags = 1 + List.fold_left (fun a t -> a + tag_weight t) 0 tags
let entry_of_trace trace = { trace; energy = 1; tags = [] }

(* Energy-proportional index selection over [energies]: draw a point in
   [0, total) with [draw] and walk the prefix sums. Exposed so tests can
   drive it with a counting draw and check the resulting distribution. *)
let weighted_pick ~draw (energies : int array) =
  let total = Array.fold_left (fun a e -> a + Int.max 1 e) 0 energies in
  if total <= 0 then invalid_arg "Fuzz_strategy.weighted_pick: empty corpus";
  let r = draw total in
  let rec go i acc =
    let acc = acc + Int.max 1 energies.(i) in
    if r < acc || i = Array.length energies - 1 then i else go (i + 1) acc
  in
  go 0 0

(* Mutation operators. [Truncate] and [Splice] are the original schedule
   mutators; [Rewindow] re-draws a bounded window of choices in place
   (keeping the suffix) — the repaired "re-randomize" operator, which
   previously only kept a prefix and was indistinguishable from
   [Truncate]; [Fault_tune] keeps the scheduling spine (every [Schedule]
   choice) byte-identical and perturbs only the recorded value draws —
   crash instants, delay latencies, drop/dup booleans — so a schedule
   that found a new partial order is re-run under neighboring fault
   timings. *)
type op = Truncate | Rewindow | Splice | Fault_tune

(* Schedule choices recorded in a trace are machine indices; when
   re-drawing one we need a plausible bound. The largest index seen in
   the entry (plus one) over-approximates the machine count without
   peeking at the harness. *)
let schedule_bound a =
  Trace.fold
    (fun acc c ->
      match c with Trace.Schedule m -> Int.max acc (m + 1) | _ -> acc)
    1 a

let apply_op rng ~pick op =
  let a = pick () in
  (* A cut point in [1, len]: mutants always keep a non-empty prefix. *)
  let cut a = 1 + Prng.int rng (Trace.length a) in
  match op with
  | Truncate ->
    (* keep a uniformly short prefix, explore randomly after it *)
    Trace.sub a 0 (cut a)
  | Rewindow ->
    (* re-draw a bounded window in place; prefix and suffix survive *)
    let len = Trace.length a in
    let start = Prng.int rng len in
    let width = 1 + Prng.int rng (min 8 (len - start)) in
    let smax = schedule_bound a in
    Trace.map_range a ~pos:start ~len:width (function
      | Trace.Schedule _ -> Trace.Schedule (Prng.int rng smax)
      | Trace.Bool _ -> Trace.Bool (Prng.bool rng)
      | Trace.Int v -> Trace.Int (Prng.int rng (v + 2)))
  | Splice ->
    (* prefix of a continued by a suffix of b *)
    let b = pick () in
    let i = cut a and j = Prng.int rng (Trace.length b) in
    Trace.append (Trace.sub a 0 i) (Trace.sub b j (Trace.length b - j))
  | Fault_tune ->
    (* perturb value draws only; the Schedule spine is untouched *)
    Trace.map_range a ~pos:0 ~len:(Trace.length a) (fun c ->
        match c with
        | Trace.Schedule _ -> c
        | Trace.Bool v -> if Prng.int rng 4 = 0 then Trace.Bool (not v) else c
        | Trace.Int v ->
          if Prng.int rng 4 = 0 then Trace.Int (Prng.int rng (v + 2)) else c)

let mutate_for_test ~seed ~corpus op =
  let traces =
    Array.of_list (List.filter (fun t -> Trace.length t > 0) corpus)
  in
  if Array.length traces = 0 then
    invalid_arg "Fuzz_strategy.mutate_for_test: empty corpus";
  let rng = Prng.create ~seed in
  let pick () = traces.(Prng.int rng (Array.length traces)) in
  apply_op rng ~pick op

(* Cross-worker novelty hub: an append-only, bounded pool of
   coverage-novel schedules shared by the per-worker corpora of a
   parallel fuzz run. Workers push the (rare) novel traces they find and
   pull the entries they have not yet seen; a lock-free version read in
   the common no-news case keeps the per-execution path free of the hub's
   mutex. The hub doubles as the run's corpus collection point: a
   campaign snapshots it after the run to persist the corpus.

   Pushes are deduplicated by schedule fingerprint — under parallel
   per-worker novelty views several workers publish the same trace, and
   without dedup duplicates would burn the cap. Nothing is dropped
   silently: both duplicate and over-cap rejections are counted and
   surfaced through {!stats}. *)
module Exchange = struct
  type slot = {
    s_trace : Trace.t;
    s_energy : int;
    s_tags : Coverage.family_kind list;
  }

  type t = {
    mu : Mutex.t;
    mutable entries : slot array;  (* append-only, first [len] valid *)
    mutable len : int;
    version : int Atomic.t;  (* = len; read without the lock *)
    cap : int;
    seen : (int64, unit) Hashtbl.t;  (* fingerprints of accepted entries *)
    mutable dropped_dup : int;
    mutable dropped_cap : int;
  }

  type stats = { accepted : int; dropped_dup : int; dropped_cap : int }

  let create ?(cap = 256) () =
    if cap <= 0 then
      invalid_arg "Fuzz_strategy.Exchange.create: cap must be positive";
    {
      mu = Mutex.create ();
      entries = [||];
      len = 0;
      version = Atomic.make 0;
      cap;
      seen = Hashtbl.create 64;
      dropped_dup = 0;
      dropped_cap = 0;
    }

  (* Callers hold [mu]. Once full the hub stops accepting — append-only
     storage keeps the pull cursors valid — but every rejection is
     counted, never silent. *)
  let push_locked t slot =
    let fp = Coverage.fingerprint slot.s_trace in
    if Hashtbl.mem t.seen fp then t.dropped_dup <- t.dropped_dup + 1
    else if t.len >= t.cap then t.dropped_cap <- t.dropped_cap + 1
    else begin
      Hashtbl.replace t.seen fp ();
      if t.len = Array.length t.entries then begin
        let cap = max 16 (2 * t.len) in
        let bigger = Array.make cap slot in
        Array.blit t.entries 0 bigger 0 t.len;
        t.entries <- bigger
      end;
      t.entries.(t.len) <- slot;
      t.len <- t.len + 1;
      Atomic.set t.version t.len
    end

  let snapshot t =
    Mutex.protect t.mu (fun () ->
        List.init t.len (fun i ->
            let s = t.entries.(i) in
            {
              trace = s.s_trace;
              energy = s.s_energy;
              tags = s.s_tags;
            }))

  let stats t =
    Mutex.protect t.mu (fun () ->
        { accepted = t.len; dropped_dup = t.dropped_dup; dropped_cap = t.dropped_cap })

  let of_entries ?cap entries =
    let t = create ?cap () in
    List.iter
      (fun e ->
        if Trace.length e.trace > 0 then
          push_locked t
            { s_trace = e.trace; s_energy = e.energy; s_tags = e.tags })
      entries;
    t
end

let factory ~seed ?(corpus_cap = 32) ?exchange ?(energy = false)
    ?(mutate_faults = false) () : Strategy.factory =
  if corpus_cap <= 0 then invalid_arg "Fuzz_strategy: corpus_cap must be positive";
  (* Factory-level rng drives corpus selection and mutation; per-execution
     rngs are derived from (seed, iteration) like the other seeded
     strategies, so the random tail of each execution is independent of
     how many corpus decisions were made before it. *)
  let rng = Prng.create ~seed:(Int64.logxor seed 0x9e3779b97f4a7c15L) in
  (* The corpus: slot [i] holds a trace in [traces] and its mutation
     energy in [energies], kept side by side so an energy pick reads the
     weights without building them; with [energy] off every slot holds 1
     and selection stays uniform. *)
  let traces : Trace.t array ref = ref [||] in
  let energies : int array ref = ref [||] in
  let add ?(entry_energy = 1) trace =
    if Trace.length trace = 0 then ()
    else if Array.length !traces < corpus_cap then begin
      traces := Array.append !traces [| trace |];
      energies := Array.append !energies [| entry_energy |]
    end
    else begin
      let i = Prng.int rng corpus_cap in
      !traces.(i) <- trace;
      !energies.(i) <- entry_energy
    end
  in
  (* Exchange plumbing: [synced] counts the hub entries this factory has
     already incorporated (its own pushes included, so a worker never
     re-imports what it contributed). Pulls happen at execution
     boundaries and only when the lock-free version read says there is
     news — the per-execution fast path never touches the hub mutex. A
     hub pre-filled with a corpus (a campaign resume) is pulled before
     the first draw, so mutation starts warm instead of from scratch. *)
  let synced = ref 0 in
  let pull_locked (ex : Exchange.t) =
    for i = !synced to ex.Exchange.len - 1 do
      let s = ex.Exchange.entries.(i) in
      add ~entry_energy:s.Exchange.s_energy s.Exchange.s_trace
    done;
    synced := ex.Exchange.len
  in
  let pull_if_news () =
    match exchange with
    | Some ex when Atomic.get ex.Exchange.version > !synced ->
      Mutex.protect ex.Exchange.mu (fun () -> pull_locked ex)
    | _ -> ()
  in
  let publish entry =
    match exchange with
    | None -> ()
    | Some ex ->
      if Trace.length entry.trace > 0 then
        Mutex.protect ex.Exchange.mu (fun () ->
            (* catch up before pushing so [synced] may skip our own entry *)
            pull_locked ex;
            Exchange.push_locked ex
              {
                Exchange.s_trace = entry.trace;
                s_energy = entry.energy;
                s_tags = entry.tags;
              };
            synced := ex.Exchange.len)
  in
  (* Uniform selection with [energy] off (the historical draw, one
     [Prng.int] per pick); energy-proportional otherwise — entries that
     discovered new partial orders or fault points get proportionally
     more mutation attempts (AFL-style power schedule). *)
  let pick () =
    if not energy then !traces.(Prng.int rng (Array.length !traces))
    else
      !traces.(weighted_pick ~draw:(fun total -> Prng.int rng total) !energies)
  in
  let mutate () =
    let n_ops = if mutate_faults then 4 else 3 in
    let op =
      match Prng.int rng n_ops with
      | 0 -> Truncate
      | 1 -> Rewindow
      | 2 -> Splice
      | _ -> Fault_tune
    in
    apply_op rng ~pick op
  in
  {
    Strategy.factory_name = "fuzz";
    (* The corpus is mutable state across iterations: sequential-only,
       unless an exchange hub links per-worker corpora — then every worker
       builds its own factory (private corpus, private rng) and the hub
       carries the rare novelty traffic between them. *)
    parallel_safe = exchange <> None;
    fresh =
      (fun ~iteration ->
        pull_if_news ();
        let exec_seed = Int64.add seed (Int64.of_int (iteration * 2 + 1)) in
        let prefix =
          (* one execution in four explores purely randomly *)
          if Array.length !traces = 0 || Prng.int rng 4 = 0 then
            Trace.empty
          else mutate ()
        in
        (* Follow the mutated prefix while it stays valid for the unfolding
           execution, then continue with seeded random choices. *)
        Some (Replay_strategy.lenient ~name:"fuzz" ~seed:exec_seed prefix));
    feedback =
      Some
        (fun ~trace ~novelty ->
          (* Core-family novelty always admits (the historical rule); with
             energy scheduling on, a new canonical partial order admits
             too — the finest interleaving signal we have. *)
          let admit =
            Coverage.novel_core novelty
            || (energy && novelty.Coverage.new_hb > 0)
          in
          if admit then begin
            let tags = if energy then Coverage.novel_families novelty else [] in
            let entry = { trace; energy = energy_of_tags tags; tags } in
            add ~entry_energy:entry.energy trace;
            publish entry
          end);
  }
