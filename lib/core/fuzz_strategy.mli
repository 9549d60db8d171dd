(** Coverage-feedback-directed schedule fuzzing.

    Keeps a bounded corpus of schedule traces that uncovered new coverage
    (fed back by the engine through {!Strategy.factory.feedback}) and
    derives each execution from a mutated corpus entry:

    - {b truncate}: keep a random-length prefix, explore randomly after it;
    - {b rewindow}: re-draw a bounded window of choices in place, keeping
      the suffix;
    - {b splice}: a prefix of one corpus entry continued by the suffix of
      another;
    - {b fault-tune} (opt-in, [mutate_faults]): keep the scheduling spine
      byte-identical and perturb only the recorded value draws — crash
      instants, delay latencies, drop/dup booleans — re-running a
      schedule under neighboring fault timings.

    The mutated prefix is replayed {e leniently} — as soon as a recorded
    choice no longer fits the execution (machine not enabled, bound
    exceeded, wrong choice kind), the strategy falls back to seeded random
    exploration for the rest of the run, so mutants always yield valid
    executions. A fraction of executions (and every execution while the
    corpus is empty) is pure seeded random, keeping exploration from
    collapsing onto the corpus.

    {b Fuzzing v2.} Each corpus entry records {e which} coverage families
    it was novel for ({!corpus_entry.tags}) and a mutation energy derived
    from them; with [energy] on, corpus selection is
    energy-proportional (an AFL-style power schedule) instead of uniform,
    so traces that discovered new canonical partial orders ({!Coverage}
    [Hb] family) or new fault points get proportionally more mutation
    attempts, and a new partial order alone admits a trace to the corpus.
    Both knobs default off, leaving the v1 draw sequence untouched.

    The factory is stateful (the corpus persists across iterations), hence
    not parallel-safe by default: the engine explores sequentially under
    it, and with the same seed the whole run is deterministic. Linking
    per-worker factories through an {!Exchange} hub makes the factory
    parallel-safe: each worker owns a private corpus and PRNG, pushes the
    (rare) coverage-novel traces it finds to the hub, and pulls unseen
    entries at execution boundaries — no shared lock on the per-execution
    path. Exchange-linked search is {e not} schedule-reproducible across
    worker timings (like any collaborative fuzzer); found witnesses still
    replay deterministically. *)

(** One corpus entry: the trace, the mutation energy it earned, and the
    typed novelty tags that admitted it (which coverage families it was
    the first to reach — empty when energy scheduling was off). *)
type corpus_entry = {
  trace : Trace.t;
  energy : int;
  tags : Coverage.family_kind list;
}

(** [energy_of_tags tags] = [1 + Σ weight(tag)] with [Hb] worth 8,
    [Fault] 4, every other family 1 — new partial orders are the finest
    signal, fault points the next. An untagged entry has energy 1. *)
val energy_of_tags : Coverage.family_kind list -> int

(** [entry_of_trace t] wraps a bare trace as an energy-1, untagged entry
    (the shape of every v1 corpus entry). *)
val entry_of_trace : Trace.t -> corpus_entry

(** [weighted_pick ~draw energies] selects an index with probability
    proportional to [max 1 energies.(i)]: [draw total] must return a
    point in [\[0, total)]. Exposed for distribution tests.
    @raise Invalid_argument on an empty array. *)
val weighted_pick : draw:(int -> int) -> int array -> int

(** The mutation operators, exposed for distribution tests (the factory
    draws them internally). [Fault_tune] is only drawn when the factory
    was created with [mutate_faults:true]. *)
type op = Truncate | Rewindow | Splice | Fault_tune

(** [mutate_for_test ~seed ~corpus op] applies one operator to a corpus
    of traces under a fresh seeded PRNG — a deterministic window into the
    factory's internal mutator, so tests can check the three schedule
    operators produce distinguishable mutant distributions.
    @raise Invalid_argument when [corpus] has no non-empty trace. *)
val mutate_for_test : seed:int64 -> corpus:Trace.t list -> op -> Trace.t

(** Cross-worker novelty hub: a bounded, append-only pool of schedules
    shared by the per-worker corpora of a parallel fuzz run. Also the
    corpus collection point for persistent campaigns ({!Campaign}): after
    a run, {!Exchange.snapshot} yields the corpus to save.

    Pushes are deduplicated by {!Coverage.fingerprint} — under parallel
    per-worker novelty views several workers publish the same trace —
    and nothing is dropped silently: {!Exchange.stats} counts both
    duplicate and over-cap rejections. *)
module Exchange : sig
  type t

  (** [create ()] — [cap] bounds the pool (default 256); once full the hub
      stops accepting (append-only storage keeps worker pull cursors
      valid) but counts every rejection. *)
  val create : ?cap:int -> unit -> t

  (** The pooled entries, in push order, energy/tags metadata included.
      Safe to call concurrently with a running exploration. *)
  val snapshot : t -> corpus_entry list

  (** Push accounting: [accepted] entries in the pool, [dropped_dup]
      pushes rejected as fingerprint duplicates, [dropped_cap] pushes
      rejected because the pool was full. Safe to call concurrently. *)
  type stats = { accepted : int; dropped_dup : int; dropped_cap : int }

  val stats : t -> stats

  (** [of_entries entries] pre-fills a fresh hub (empty traces are
      skipped, duplicates deduped) — the campaign-resume path, so every
      worker's corpus starts from the persisted one, energy included. *)
  val of_entries : ?cap:int -> corpus_entry list -> t
end

val factory :
  seed:int64 ->
  ?corpus_cap:int ->
  ?exchange:Exchange.t ->
  ?energy:bool ->
  ?mutate_faults:bool ->
  unit ->
  Strategy.factory
(** [factory ~seed ()] — [corpus_cap] bounds the corpus (default 32;
    once full, a random entry is evicted); one execution in four, and
    every execution while the corpus is empty, explores purely randomly;
    [exchange] links this factory's corpus to other workers' through a
    shared novelty hub, seeds it with the hub's entries before the first
    draw (a campaign resume passes the persisted corpus, energies
    included, through {!Exchange.of_entries}) and marks the factory
    parallel-safe; [energy]
    (default off) turns on the energy-proportional power schedule and
    hb-novelty admission; [mutate_faults] (default off) adds the
    fault-tune operator to the mutation mix. With both knobs off the
    factory draws exactly the v1 sequence. *)
