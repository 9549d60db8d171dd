(** Declarative test scenarios, enforced through the runtime's probe.

    A scenario is a small set of declarative clauses over machine and event
    {e predicates} — ordering constraints ("no [Sync_report] is delivered
    before the first [Fail_en]"), fault placement ("crash some [EN*] after
    the harness enters [Repairing]", "drop every [Router]→[N*] message
    between step 30 and step 120") and scheduling focus ("pause the
    migrator until the clients settle"). A per-execution observer
    ({!Obs}) sees every event through {!Probe} and, when it steers, the
    runtime asks it two things: which enabled machines the clauses admit
    before each scheduling pick, and which fault a send or crash tick is
    forced to. The base strategy (random, PCT, fuzz, …) still makes every
    free choice. A forced fault is recorded in the trace exactly like a
    drawn one, so scenario-found traces replay, shrink, feed fuzz corpora
    and run under campaigns unchanged.

    The text form is strict and canonical in the style of {!Trace} and
    {!Fault}: [of_string] accepts exactly what [to_string] produces (one
    clause per line), making scenarios CLI-able and persistable. *)

(** {1 Predicates} *)

(** A machine- or event-name pattern: either an exact name ([Tables]) or a
    prefix glob ([Replica*], bare [*] for everything). *)
type pat

(** [pat s] parses a pattern. Valid patterns are a non-empty run of
    [A-Za-z0-9_.-] optionally followed by a single trailing [*], or the
    bare [*].
    @raise Invalid_argument otherwise. *)
val pat : string -> pat

val pat_to_string : pat -> string

(** {1 Triggers}

    Triggers are {e latching}: once fired they stay fired for the rest of
    the execution, so every clause's lifecycle is monotone and the
    observer's pruning decisions are reproducible from the recorded
    journal. *)

type trigger

val start : trigger
(** fires immediately *)

val at_step : int -> trigger
(** fires once the scheduling step counter reaches [n] *)

val at_time : int -> trigger
(** fires once virtual time reaches [n] (with the clock off, virtual time
    never advances, so [at_time n] with [n > 0] never fires) *)

val delivered : ?count:int -> pat -> trigger
(** fires on the [count]-th (default 1st) dequeue of an event whose name
    matches the pattern *)

val entered : pat -> string -> trigger
(** fires when a machine matching the pattern calls [set_state_name] with
    exactly this state *)

val quiet : pat -> trigger
(** fires the first time a machine matching the pattern is observed
    quiescent: it has been seen enabled at some earlier scheduling point
    and is now absent from the enabled set *)

val crashed : pat -> trigger
(** fires when a machine matching the pattern crashes *)

(** {1 Clauses} *)

type clause

val order : pat -> pat -> clause
(** [order a b]: no event matching [b] is dequeued before the first
    dequeue of an event matching [a]. Enforced by pruning machines whose
    next dequeue matches [b] while [a] is still outstanding. *)

val crash_when : pat -> after:trigger -> clause
(** [crash_when victim ~after]: once [after] fires, the {!Fault_driver}'s
    next crash coin is forced and aimed at a machine matching [victim]
    (preferring one the scenario has not crashed yet — stack several
    clauses for rolling restarts). Until [after] fires the coin is forced
    {e off}, so no stray crash predates its trigger. *)

val partition :
  pat -> pat -> from_:trigger -> until_:trigger -> clause
(** [partition a b ~from_ ~until_]: while the window is active, every
    interposed send crossing between side [a] and side [b] (either
    direction) is forced to drop. A machine matching [b] belongs to side
    [b] even if it also matches [a] — the more specific side wins — so
    [partition * N2] isolates [N2] from everyone else. *)

val drop_link : src:pat -> dst:pat -> from_:trigger -> until_:trigger -> clause
(** one-directional forced drop on matching links while active (asymmetric
    partitions) *)

val dup_link : src:pat -> dst:pat -> from_:trigger -> until_:trigger -> clause
(** matching sends are forced to duplicate while active *)

val delay_link :
  src:pat -> dst:pat -> latency:int -> from_:trigger -> until_:trigger -> clause
(** matching sends are forced to delay with the given latency while
    active *)

val pause : pat -> from_:trigger -> until_:trigger -> clause
(** machines matching the pattern are pruned from the enabled set while
    the window is active (they dequeue nothing) *)

val focus : pat -> from_:trigger -> until_:trigger -> clause
(** while active, if any enabled machine matches the pattern, machines
    that do not match are pruned — scheduling focus without exclusion
    when nothing matching is runnable *)

(** {1 Scenarios} *)

type t

(** [make clauses] validates and builds a scenario.
    @raise Invalid_argument on an empty list or duplicate clauses. *)
val make : clause list -> t

val clauses : t -> clause list
val clause_to_string : clause -> string

(** Canonical text: one clause per line, each line newline-terminated. A
    fixpoint of {!of_string}. *)
val to_string : t -> string

(** Strict parser: accepts exactly the canonical rendering (plus nothing
    else — no blank lines, no duplicate clauses, no unknown keywords, no
    non-canonical integer or pattern spellings). *)
val of_string : string -> (t, string) result

(** [arm t spec] returns [spec] with every fault kind the clauses need
    armed and the budget raised so forced injections cannot starve:
    partition/drop clauses arm [Drop], dup clauses [Duplicate], delay
    clauses [Delay] (with [max_delay] at least the largest forced
    latency), crash clauses [Crash] (budget +1 each); each link-window
    clause adds 48 budget. A scenario with no fault clauses returns
    [spec] unchanged. *)
val arm : t -> Fault.spec -> Fault.spec

(** Number of [crash_when] clauses — the fault driver uses it as a floor
    for its crash allowance so multi-crash scenarios need no harness
    changes. *)
val crash_slots : t -> int

(** {1 Journal}

    Per-execution observations the runtime reports to the observer,
    steering or not, sufficient for {!check} to revalidate every clause
    independently of the enforcement code paths. *)

type fate = Passed | Dropped | Dupped | Delayed

type journal_entry =
  | J_deliver of {
      step : int;
      time : int;
      sender : string;  (** ["-"] for environment sends *)
      receiver : string;
      event : string;
    }
  | J_send of {
      step : int;
      time : int;
      sender : string;
      target : string;
      event : string;
      fate : fate;
          (** what the draws actually resolved to — forced on constrained
              links, chosen freely by the base strategy elsewhere *)
      budget : int;  (** faults remaining when the send was interposed *)
    }
  | J_state of { step : int; machine : string; state : string }
  | J_crash of { step : int; time : int; machine : string }
  | J_quiet of { step : int; machine : string }
      (** first observed quiescence of the machine *)

val journal_entry_to_string : journal_entry -> string

(** [check t journal] replays the journal through an independent
    constraint checker: trigger and window states are recomputed from the
    entries alone and every clause obligation is validated (an admitted
    delivery violating an order or pause clause, an in-window matching
    send with budget left whose fate is not the forced one, a crash no
    fired clause accounts for). Returns the list of violations. *)
val check : t -> journal_entry list -> (unit, string list) result

(** A send's forced fault: drop, duplicate, or delay by a latency. *)
type forced_kind = FK_drop | FK_dup | FK_delay of int

(** {1 Per-execution observer} *)

module Obs : sig
  type scenario := t

  (** Mutable per-execution state fed by the runtime through {!Probe}.
      Create a fresh one per execution. *)
  type t

  (** [create scenario ~faults ~steer] — [faults] must be the (already
      {!arm}ed) spec the execution runs under. With [steer] the observer
      prunes the enabled set and forces fault draws; without it (DFS,
      replay, the shrinker) it only records the journal, which is then
      the same journal the steering run recorded.
      @raise Invalid_argument when [faults] does not arm every fault
      kind the clauses need with a large enough [max_delay] and budget,
      as {!arm} does. *)
  val create : scenario -> faults:Fault.spec -> steer:bool -> t

  val scenario : t -> scenario

  (** {2 Runtime hooks} — all draw-free. *)

  val on_create : t -> index:int -> name:string -> unit
  val on_state : t -> step:int -> index:int -> state:string -> unit

  val on_deliver :
    t -> step:int -> time:int -> sender:int -> receiver:int -> event:string -> unit

  val on_crash : t -> step:int -> time:int -> target:int -> unit

  (** Called immediately before [send_faulty] draws its fault coin (and
      only when it will draw: message faults armed, budget left, target
      alive). Returns the fault the first active link clause forces on
      this send when steering, [None] otherwise. *)
  val pre_send :
    t -> step:int -> time:int -> sender:int -> target:int -> event:string ->
    budget:int -> forced_kind option

  (** What the send {!pre_send} announced resolved to; journals it. *)
  val sent : t -> fate -> unit

  (** Number of crash clauses; when positive, the fault driver switches
      to steered ticks. *)
  val crash_slots : t -> int

  (** A steered crash tick over the crashable machines [victims] (names,
      in creation order): [`Crash i] strikes [victims]'s [i]-th when a
      fired crash clause demands it, [`Skip] strikes none, and [`Draw]
      (not steering) leaves both to the strategy. *)
  val crash_victim :
    t -> step:int -> victims:string list -> [ `Draw | `Skip | `Crash of int ]

  (** [schedule t strategy ~enabled ~n ~step] picks the next machine:
      it latches quiescence (journaled as {!J_quiet}), and when steering
      it hands [strategy] only the machines the order, pause and focus
      clauses admit. *)
  val schedule :
    t -> Strategy.t -> enabled:int array -> n:int -> step:int -> int

  (** The runtime installs a peek callback: machine creation index ↦ name
      of the event it would dequeue next (respecting its receive
      predicate), or [None]. Used to enforce [order] clauses. *)
  val set_peek : t -> (int -> string option) -> unit

  (** {2 Results} *)

  val journal : t -> journal_entry list

  (** Scheduling points where pruning emptied the enabled set and the
      observer admitted the full set rather than manufacture a deadlock.
      A sound scenario keeps this at zero. *)
  val wedges : t -> int

  (** Enforcement-time self-check failures (a focus clause bypassed after
      a wedge, …). Empty for a sound scenario. *)
  val violations : t -> string list
end
