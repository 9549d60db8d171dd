(** Execution-coverage maps.

    A coverage map records {e what} a testing run actually explored, so an
    execution budget can be judged by more than "bug or no bug" (the
    motivation behind P#'s activity coverage and Mallory-style feedback
    fuzzing). Four families of coverage points are counted, each keyed by a
    human-readable string:

    - {b machine states}: ["Machine.State"] visits (plain machines that
      never declare states appear as ["Machine.-"]);
    - {b event types}: names of events actually delivered (dequeued);
    - {b transition triples}: ["Sender -[Event]-> Receiver@State"], the
      delivery edges of the execution — who sent which event into which
      receiver state;
    - {b branch outcomes}: resolved [nondet] / [nondet_int] choices,
      ["Machine ? value"];
    - {b fault points}: injected faults, ["kind Target"] (drop, dup, delay,
      crash) — empty unless fault injection is enabled.

    In addition every execution contributes a 64-bit {e schedule
    fingerprint} (a hash of its full choice trace), so a map counts how
    many {e distinct} schedules a run explored.

    The {!Runtime} records into whichever map its config carries. The
    sequential {!Engine} loops hand it the run's accumulator itself, so
    every execution is recorded straight into the accumulator and its
    novelty is read off each family's growth ({!mark},
    {!novelty_since}). Parallel workers record each execution into a
    per-worker map and merge with {!absorb_tagged} at batch boundaries.
    Maps are not thread-safe; concurrent absorbs must be serialized by
    the caller (the engine holds a mutex).

    Keys are interned: each map numbers the strings it has seen
    ({e symbols}, private to the map), and recording through the [_sym]
    entry points hashes, compares and allocates no string. Strings are
    rebuilt only for reports, {!to_save}, {!equal} and the symbol
    translation of a cross-map {!absorb_tagged}. *)

type t

(** A fresh, empty map. Cheap: every table starts small. *)
val create : unit -> t

(** {1 Recording (one execution)} *)

(** [sym t s] is [s]'s symbol in [t], interning it on first sight. A
    symbol is valid only for the map that issued it. *)
val sym : t -> string -> int

(** The symbol of the event's {!Event.name}, cached per extension
    constructor: allocation-free after the constructor's first event. *)
val event_sym : t -> Event.t -> int

(** Symbol-keyed recording: the same points as {!visit_state},
    {!deliver}, {!branch_bool} and {!branch_int}, with every name given
    as a symbol of [t]. Allocation-free unless a table grows. *)

val visit_state_sym : t -> machine:int -> state:int -> unit

val deliver_sym :
  t -> sender:int -> event:int -> receiver:int -> state:int -> unit

val branch_bool_sym : t -> machine:int -> bool -> unit
val branch_int_sym : t -> machine:int -> bound:int -> int -> unit

val visit_state : t -> machine:string -> state:string -> unit

(** [deliver t ~sender ~event ~receiver ~state] records one event delivery:
    the event type itself and the [(sender, event, receiver@state)]
    transition triple. *)
val deliver :
  t -> sender:string -> event:string -> receiver:string -> state:string -> unit

val branch_bool : t -> machine:string -> bool -> unit
val branch_int : t -> machine:string -> bound:int -> int -> unit

(** [fault t ~kind ~target] records one injected fault point — [kind] is
    the fault name (["drop"], ["dup"], ["delay"], ["crash"]) and [target]
    the affected machine's name. *)
val fault : t -> kind:string -> target:string -> unit

(** [history t ~point] records one completed client operation from a
    recorded {!History} (rendered ["client op -> res"]). Empty unless a
    harness records a history, so history-free runs are untouched. *)
val history : t -> point:string -> unit

(** [fingerprint trace] hashes the full choice sequence (FNV-1a, 64-bit).
    Purely a function of the trace: replaying a recorded schedule yields
    the identical fingerprint. *)
val fingerprint : Trace.t -> int64

(** [note_execution t ~fingerprint] closes one execution: counts it and
    files its schedule fingerprint. *)
val note_execution : t -> fingerprint:int64 -> unit

(** [note_hb t ~fingerprint] files one execution's canonical partial-order
    fingerprint ({!Hb.canonical_fingerprint}) into the [hb] family. Two
    executions that are linearizations of the same Mazurkiewicz trace file
    the same fingerprint, so the family counts {e semantically distinct}
    interleavings where [note_execution]'s raw schedule fingerprints count
    syntactically distinct ones. Empty unless happens-before tracking is
    enabled. *)
val note_hb : t -> fingerprint:int64 -> unit

(** [schedule_digest t] is a 16-hex-digit digest of the whole
    schedule-fingerprint multiset (FNV-1a over the sorted (fingerprint,
    count) pairs): equal digests mean the run explored exactly the same
    schedules the same number of times. Used as a compact golden value by
    determinism tests. *)
val schedule_digest : t -> string

(** {1 Merging} *)

(** The novelty-bearing families of a map, used to key plateau bounds and
    typed corpus tags. [Hb] is the canonical partial-order family
    ({!note_hb}); raw schedule fingerprints are deliberately not a family
    here — they never count as novelty (see {!absorb}). *)
type family_kind = State | Event | Triple | Branch | Fault | History | Hb

(** Every family kind, in the canonical (persistence) order. *)
val all_family_kinds : family_kind list

(** Stable lowercase spelling: ["state"], ["event"], ["triple"],
    ["branch"], ["fault"], ["history"], ["hb"] — the CLI
    [--plateau-family] vocabulary and the campaign-save tag format. *)
val family_kind_to_string : family_kind -> string

(** Strict inverse of {!family_kind_to_string}.
    @raise Failure on an unknown family name. *)
val family_kind_of_string : string -> family_kind

(** Per-family novelty breakdown of one {!absorb_tagged}: how many keys of
    each family the absorbed map contributed that the accumulator had
    never seen. Raw schedule fingerprints are excluded by design (almost
    every random schedule is unique — counting them would drown the
    feedback signal); new {e hb} fingerprints are reported in [new_hb]
    but excluded from {!novel_core}, preserving the historical [absorb]
    flag. *)
type novelty = {
  new_states : int;
  new_events : int;
  new_triples : int;
  new_branches : int;
  new_faults : int;
  new_histories : int;
  new_hb : int;
}

val no_novelty : novelty

(** The historical {!absorb} flag: any new state, event type, triple,
    branch outcome, fault point or history point. New [hb] fingerprints
    alone do {e not} set it (they never did), so default-configured
    feedback and plateau semantics are unchanged. *)
val novel_core : novelty -> bool

(** [novel_in n fam]: did the absorb contribute a new key of [fam]? *)
val novel_in : novelty -> family_kind -> bool

(** Families with at least one new key, in canonical order — the typed
    novelty tags a fuzz corpus entry records. *)
val novel_families : novelty -> family_kind list

(** [absorb_tagged ~into src] adds every count of [src] into [into]
    (commutative and associative up to {!equal}, so per-worker maps may be
    merged in any order) and returns the per-family novelty breakdown. *)
val absorb_tagged : into:t -> t -> novelty

(** The size of every novelty-bearing family at one instant. *)
type mark

val mark : t -> mark

(** [novelty_since t m]: what [t] gained since [m] was taken — for an
    accumulator recorded into directly, exactly the breakdown
    {!absorb_tagged} would report for the same recordings made into a
    separate map and absorbed. *)
val novelty_since : t -> mark -> novelty

(** [absorb ~into src] = [novel_core (absorb_tagged ~into src)]: [true]
    when [src] contributed at least one {e new} coverage point — a state,
    event type, triple or branch outcome [into] had never seen. New
    schedule fingerprints alone do not count as novel (random scheduling
    makes almost every schedule unique, which would drown the signal
    feedback strategies rely on), and neither do new hb fingerprints under
    this boolean summary — use {!absorb_tagged} when hb novelty matters. *)
val absorb : into:t -> t -> bool

(** Structural equality over every counter, fingerprint multiset included. *)
val equal : t -> t -> bool

(** {1 Persistence}

    Versioned, line-oriented dump of the full map — structured keys, not
    the rendered report strings, so a loaded map merges ({!absorb}) and
    compares ({!equal}) exactly like the original. Canonical: {!equal}
    maps serialize to identical bytes. Used by {!Campaign} to carry
    merged coverage across invocations. *)

val to_save : t -> string

(** Inverse of {!to_save}. The parse is strict in the {!Trace.of_string}
    mold: an unsupported version line, unknown tags, blank lines,
    non-canonical numbers, dangling escapes, duplicate keys, and a
    missing or mismatching [end:] trailer (whole-line truncation) are all
    rejected — a corrupted file must fail loudly rather than resume as a
    subtly different map.
    @raise Failure on malformed input. *)
val of_save : string -> t

val save : path:string -> t -> unit
val load : path:string -> t

(** {1 Reading} *)

type totals = {
  machine_states : int;
  event_types : int;
  transition_triples : int;
  branch_outcomes : int;
  fault_points : int;
  history_points : int;
      (** distinct completed client operations ({!history}); [0] unless a
          harness recorded a history *)
  unique_schedules : int;
  partial_orders : int;
      (** distinct canonical partial-order fingerprints ({!note_hb});
          [0] unless happens-before tracking was enabled *)
  executions : int;
}

val totals : t -> totals

(** Entries of one family, sorted by key, with visit counts. *)

val states : t -> (string * int) list

val events : t -> (string * int) list
val triples : t -> (string * int) list
val branches : t -> (string * int) list

(** Injected fault points, rendered ["kind Target"]. *)
val faults : t -> (string * int) list

(** Completed client operations, rendered ["client op -> res"]. *)
val histories : t -> (string * int) list

(** Schedule fingerprints with the number of executions that produced
    each. *)
val schedules : t -> (int64 * int) list

(** Canonical partial-order fingerprints with the number of executions
    that produced each (empty unless happens-before tracking was on). *)
val hb_fingerprints : t -> (int64 * int) list

(** {1 Reporting} *)

(** One-line totals, e.g.
    ["12 states, 9 event types, 31 triples, 18 branch outcomes, 200/200 unique schedules"]. *)
val pp_totals : Format.formatter -> t -> unit

(** Human-readable report: totals plus the most-visited entries of each
    family (capped; the JSON report is exhaustive). *)
val pp_table : Format.formatter -> t -> unit

(** Exhaustive JSON rendering of the map (totals + every entry of every
    family + schedule fingerprints). *)
val to_json : t -> string
