(** Persistent campaign state.

    A {e campaign} is a bug hunt that accumulates knowledge across process
    invocations: the merged {!Coverage} of every execution spent so far,
    the fuzz corpus of coverage-novel schedules, and an archive holding
    one witness trace per distinct bug kind found. Saved as a directory
    holding generations, one per save, and a pointer to the published
    one:

    {v
    DIR/CURRENT                          names the published generation
    DIR/gen-NNNNN/campaign.meta          strict versioned manifest
    DIR/gen-NNNNN/coverage               Coverage save format
    DIR/gen-NNNNN/corpus/NNNNN.trace     corpus entries (Trace save format)
    DIR/gen-NNNNN/witnesses/NNNNN.trace  one witness per distinct bug kind
    v}

    A directory with no [CURRENT] but a [campaign.meta] (the layout before
    generations) loads from [DIR] itself.

    A resumed invocation seeds the engine with the stored state
    ({!resume} builds the {!Engine.config}[.resume] record) so it
    explores {e new} iterations, judges novelty against everything already
    seen, and mutates the corpus that got there — which is what makes
    executions-to-first-bug drop across invocations.

    Loading is strict in the {!Trace.of_string} mold: version mismatches,
    truncation, non-canonical numbers and missing component files are all
    rejected with [Failure] — a corrupted campaign must fail loudly, not
    resume as a subtly different hunt. *)

type t = {
  harness : string;  (** harness name the campaign belongs to *)
  seed : int64;  (** base seed of the campaign *)
  executions : int;  (** executions spent across all invocations so far *)
  coverage : Coverage.t;  (** merged coverage of all those executions *)
  corpus : Fuzz_strategy.corpus_entry list;
      (** fuzz corpus in discovery order, each entry carrying its
          mutation energy and the typed novelty tags that admitted it.
          The metadata persists as strict [centry:<energy>[,tag...]]
          manifest lines (canonical tag order, canonical integers), so a
          resume restarts the power schedule exactly where it stopped. *)
  witnesses : (string * Trace.t) list;
      (** found bugs: [(kind, witness)] in discovery order, one entry per
          distinct kind *)
}

(** A fresh campaign: zero executions, empty coverage/corpus/witnesses. *)
val create : harness:string -> seed:int64 -> t

(** [advance t ~executions ~coverage ~corpus] folds one finished
    invocation in: adds [executions] to the spent total and replaces the
    coverage map and corpus with the invocation's cumulative ones. *)
val advance :
  t ->
  executions:int ->
  coverage:Coverage.t ->
  corpus:Fuzz_strategy.corpus_entry list ->
  t

(** [resume t config] is [config] continuing [t]: the campaign's seed,
    iterations from [t.executions] on, [t.coverage] as prior coverage
    and, under the [Fuzz] strategy, a fresh {!Fuzz_strategy.Exchange} hub
    pre-filled with [t.corpus] (other strategies keep no corpus, so they
    get no hub). After the run, that hub's snapshot is the corpus to
    {!advance} with. Resuming a {!create}d campaign is a fresh run that
    collects coverage and, under fuzz, a corpus. *)
val resume : t -> Engine.config -> Engine.config

(** Archives a witness for [kind]; a kind already archived is kept
    unchanged (the first witness wins). *)
val record_witness : t -> kind:string -> trace:Trace.t -> t

(** [save ~dir t] writes [t] as a new generation of the campaign directory
    (created if missing), publishes it by renaming [CURRENT] over the old
    pointer, then deletes the older generations. A save interrupted
    anywhere before that rename leaves the previously saved campaign
    loadable exactly as it was. *)
val save : dir:string -> t -> unit

(** [save_with ~write ~dir t] is {!save} with every file write going
    through [write path data]. Crash tests pass a [write] that raises part
    way. *)
val save_with :
  write:(string -> string -> unit) -> dir:string -> t -> unit

(** The directory {!load} reads the components from: the published
    generation, or [dir] itself for the layout before generations.
    @raise Failure on a malformed pointer. *)
val live_dir : dir:string -> string

(** Strict inverse of {!save}.
    @raise Failure on any malformed or missing component. *)
val load : dir:string -> t

(** [None] when [dir] holds no campaign (no manifest); otherwise
    {!load}'s result, including its [Failure] on corruption. *)
val load_opt : dir:string -> t option

(** One-line summary (harness, seed, executions spent, corpus and witness
    sizes). *)
val pp : Format.formatter -> t -> unit
