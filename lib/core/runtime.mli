(** The systematic-testing runtime (one execution).

    Like P# (§2), the runtime serializes the whole system onto a single
    thread. A machine is one of two kinds. A {e fiber} machine is a
    delimited continuation (OCaml effects): it runs until it blocks on
    [receive], finishes, or halts. A {e served} machine ({!serve}) has
    handed the runtime one event handler and has no fiber: each delivery
    calls the handler directly and it runs to completion, as P#'s handlers
    do. Either way the scheduler then picks the next enabled machine. The
    scheduling points — which machine dequeues next, and every [nondet]
    choice — are resolved by a {!Strategy.t} and recorded in a
    {!Trace.t}, so any execution can be replayed deterministically.

    The runtime reports every event it serializes to the execution's
    observers — the happens-before recorder, the coverage map and the
    scenario observer of [config] — through one {!Probe}, built once per
    execution. Observing draws nothing, so the schedule explored does not
    depend on which observers are on. *)

(** Capability handed to a machine body; identifies the machine and carries
    the runtime. *)
type ctx

type config = {
  max_steps : int;
      (** executions longer than this are treated as infinite (§2.5) *)
  liveness_grace : int option;
      (** a liveness violation is reported at the step bound only if the
          monitor has been continuously hot for at least this many steps
          (default [max_steps / 2]); on deadlock any hot monitor reports *)
  deadlock_is_bug : bool;
      (** report a bug when no machine is enabled but some still wait *)
  collect_log : bool;
      (** record the human-readable global-order log. The contract is
          zero-cost-when-disabled: with [collect_log = false] no log line
          is formatted — not even the arguments are evaluated — and with
          it [true] only observation changes, never the schedule explored
          (pinned by [test/test_golden.ml]) *)
  coverage : Coverage.t option;
      (** when set, the execution records its coverage points — machine
          state visits, delivered event types, [(sender, event,
          receiver@state)] transition triples and nondet branch outcomes —
          into this per-execution map *)
  hb : Hb.t option;
      (** when set, the execution records its happens-before relation —
          per-machine vector clocks merged on delivery, with
          [send_faulty], [crash] and monitor notifications participating
          — into this per-execution recorder ({!Hb}). Same contract as
          [coverage]: recording draws nothing from the strategy and never
          perturbs the schedule (pinned by [test/test_golden.ml]); [None]
          costs one match per operation *)
  faults : Fault.spec;
      (** fault-injection spec. The contract mirrors [collect_log]: with
          {!Fault.none} (the default) [send_faulty] degenerates to [send]
          behind a single boolean load and makes {e zero} strategy draws,
          so schedules and golden digests are byte-identical to a build
          without fault support (pinned by [test/test_golden.ml] and
          [bench fault-overhead]) *)
  deadline : float option;
      (** absolute [Unix.gettimeofday] bound; when set the step loop
          checks it every 64 steps and aborts the current execution
          cleanly ([exec_result.timed_out]) instead of overshooting the
          run's time budget by a whole execution *)
  clock : Clock.config option;
      (** when set, the execution runs under {e virtual time}: a
          discrete-event clock ({!Clock}) that machines arm timed
          deliveries on ({!send_after}, {!Timer} when built on it) and
          that advances {e only at quiescence} — when no machine
          is enabled, the earliest armed entry fires, so simulated seconds
          cost nothing. Delay faults become per-link latency durations
          (the drawn value is virtual time units instead of a delivery
          countdown). Advancing draws nothing from the strategy —
          timestamps are a deterministic function of the schedule. The
          contract mirrors [faults]: with [None] (the default) no code
          path draws or behaves differently from a build without clock
          support, so all pre-clock golden digests are byte-identical
          (pinned by [test/test_golden.ml]). *)
  scenario : Scenario.Obs.t option;
      (** when set, the execution feeds this per-execution scenario
          observer: machine creations, state declarations, deliveries,
          crashes, quiescence and the fate of every send that draws a
          fault. Observing draws nothing. An observer created with
          [~steer:true] also steers: it prunes the enabled set before each
          scheduling pick and forces the fault draws its clauses demand,
          recording them like free draws. One created without steering
          leaves the schedule alone (replay and shrinking: the forced
          draws are already in the trace). The same contract as
          [coverage]/[hb]: [None] costs one match per operation and zero
          draws. *)
}

val default_config : config

type exec_result = {
  bug : Error.kind option;
  bug_step : int;  (** step at which the bug was detected; [steps] if none *)
  steps : int;  (** scheduling steps taken *)
  choices : Trace.t;  (** all nondeterministic choices, in order *)
  log : string list;  (** oldest first; empty unless [collect_log] *)
  timed_out : bool;  (** the execution was aborted at [config.deadline] *)
  faults_injected : int;  (** faults actually injected this execution *)
  final_time : int;
      (** virtual time when the execution ended; [0] when [config.clock]
          is [None] *)
}

(** [execute config strategy ~monitors ~name body] runs one execution from
    scratch: a root machine called [name] running [body] is created, and the
    system runs until all machines halt, a bug is found, or [max_steps] is
    reached. [monitors] must be freshly created for this execution.

    Once the result is built, every machine still blocked (and every
    continuation {!crash} discarded) is unwound, so its fiber stack is
    freed. A [Fun.protect] finaliser runs then, but any runtime call it
    makes raises before recording anything: the result, coverage, hb and
    log are those of the execution proper. *)
val execute :
  config ->
  Strategy.t ->
  monitors:Monitor.t list ->
  name:string ->
  (ctx -> unit) ->
  exec_result

(** {1 Machine API}

    These functions may only be called from within a machine body, on the
    [ctx] the runtime passed to it. *)

(** This machine's id. *)
val self : ctx -> Id.t

(** [create ctx ~name body] creates a new machine and returns its id. The
    machine starts when the scheduler first picks it.

    [?persistent] makes the machine {e crashable}: {!crash} discards its
    inbox and volatile state (the running body) and restarts it on the body
    [persistent ()] builds — typically a closure over a harness-owned
    "disk" record holding whatever state survives the crash. Machines
    created without it cannot be crashed. Registration is draw-free: a
    [persistent] hook alone never perturbs the schedule. *)
val create :
  ?persistent:(unit -> ctx -> unit) -> ctx -> name:string -> (ctx -> unit) ->
  Id.t

(** [send ctx target e] enqueues [e] in [target]'s inbox (non-blocking).
    Sends to halted machines are dropped, as in P#. *)
val send : ctx -> Id.t -> Event.t -> unit

(** [send_faulty ctx target e] is the fault-injection interposition point
    for harness protocol messages (§2.3: failures as controlled
    nondeterminism). With message faults disabled — [config.faults] =
    {!Fault.none}, budget exhausted, or only [crash] armed — it is exactly
    [send] and draws nothing. Otherwise it draws [nondet] to decide whether
    to inject here and, if so, drops, duplicates, or delays the message
    (re-enqueued behind [1 + nondet_int max_delay] later deliveries); each
    injection consumes one unit of the shared fault budget and is recorded
    in the trace, the execution log, and the coverage [fault] family.
    Delayed messages still in flight when the system quiesces are released
    rather than counted as a deadlock. *)
val send_faulty : ctx -> Id.t -> Event.t -> unit

(** Like [send], but coalesces: if the target's inbox already holds a
    duplicate, the new event is dropped. By default a duplicate is an
    event built by the same constructor ({!Event.constructor}), whatever
    its payload: a physical comparison per queued event, with no name
    lookup and no closure. Constructors declared in different modules
    are different even when they share a bare {!Event.name}, so neither
    coalesces the other. [same] overrides the test. Used for periodic
    signals — timer ticks, heartbeats, sync reports — whose missed
    occurrences collapse, so they cannot flood a slow machine's queue. *)
val send_unless_pending :
  ?same:(Event.t -> bool) -> ctx -> Id.t -> Event.t -> unit

(** Block until an event is available, then dequeue it (FIFO).
    @raise Invalid_argument when called from a served handler ({!serve}),
    which cannot block; the execution reports it as the machine's
    [Machine_exception]. *)
val receive : ctx -> Event.t

(** Block until an event satisfying [pred] is available; dequeues the first
    such event, leaving others in order.
    @raise Invalid_argument when called from a served handler. *)
val receive_where : ctx -> (Event.t -> bool) -> Event.t

(** [serve ctx handler] turns the calling machine into a served machine
    and never returns: its fiber ends, and from then on each event the
    scheduler delivers to it (FIFO, as {!receive} would dequeue it) is
    passed to [handler], which runs to completion on the scheduler's own
    stack. A delivery is one scheduling step, exactly as for a machine
    blocked in an unfiltered [receive] loop that calls [handler] on each
    event — same enabledness, trace, coverage, happens-before and log —
    but without a fiber switch. A handler ends its step by returning;
    {!halt}, a bug or any other exception ends the machine as it would a
    fiber's, and calling [serve] again replaces the handler. A served
    machine with an empty inbox counts as blocked for deadlock reports,
    and a persistent one restarts its body after a {!crash}.

    Write a machine this way when every handler runs to completion; a
    machine that waits for a reply in the middle of handling an event
    needs a fiber. [handler] must not call {!receive} or
    {!receive_where}. Like {!halt}, [serve] unwinds the body with an exception,
    so do not call it under a handler that catches every exception. *)
val serve : ctx -> (Event.t -> unit) -> 'a

(** Controlled nondeterministic boolean (a scheduling choice point). *)
val nondet : ctx -> bool

(** Controlled nondeterministic integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)
val nondet_int : ctx -> int -> int

(** Uniform controlled choice among a list: one [nondet_int] draw
    bounded by the list's length (none for a one-element list), which
    indexes the list without copying it.
    @raise Invalid_argument on the empty list. *)
val choose : ctx -> 'a list -> 'a

(** Terminate this machine. Remaining queued events are dropped. *)
val halt : ctx -> 'a

(** [crash ctx target] crash-restarts a machine created with [~persistent]:
    its inbox, in-flight delayed messages, and volatile state are
    discarded, and it will re-run the body its restart hook builds when the
    scheduler next picks it. Consumes one unit of the fault budget and is
    recorded in coverage/log. No-op when [target] already halted (a crash
    cannot resurrect a finished machine).
    @raise Invalid_argument on self-crash or a non-persistent target. *)
val crash : ctx -> Id.t -> unit

(** [alive ctx id] is whether [id] names a machine that has not halted.
    A draw-free observation: restarted machines use it to tell a live
    peer from a torn-down one before announcing themselves. *)
val alive : ctx -> Id.t -> bool

(** The execution's fault spec (so helper machines like {!Fault_driver}
    can see which kinds are armed). *)
val fault_spec : ctx -> Fault.spec

(** Remaining shared fault budget for this execution. *)
val fault_budget_left : ctx -> int

(** Currently crashable machines — created with [~persistent], not halted,
    excluding the caller — in creation order (stable under replay). *)
val crashable_machines : ctx -> Id.t list

(** {1 Scenario steering}

    What {!Fault_driver} uses to run scenario-steered crash ticks. *)

(** Number of crash clauses ([0] without a scenario observer in the
    config). When positive, the driver runs each tick through
    {!scenario_victim}, and takes it as a floor for its crash allowance
    so rolling-restart scenarios fit without harness changes. *)
val scenario_crash_slots : ctx -> int

(** [scenario_victim ctx victims] is one steered tick over the non-empty
    [victims] ({!crashable_machines}): the machine to crash, or [None].
    It records a crash coin and, when the coin strikes among several
    victims, the pick. Both are forced by the scenario's crash clauses
    when its observer steers and drawn from the strategy otherwise. *)
val scenario_victim : ctx -> Id.t list -> Id.t option

(** [notify ctx monitor_name e] synchronously notifies the named monitor.
    Unknown monitor names are ignored (harnesses may run without their
    monitors installed). *)
val notify : ctx -> string -> Event.t -> unit

(** [assert_here ctx cond msg] reports an assertion-failure bug on this
    machine when [cond] is false. Like every OCaml argument, [msg] is
    evaluated before the call, also when [cond] holds: a message built
    with [Printf.sprintf] is formatted on every passing check. On a hot
    path, test first and build the message only on failure:
    [if not cond then assert_here ctx false (Printf.sprintf ...)]. *)
val assert_here : ctx -> bool -> string -> unit

(** Append a line to the global-order log (no-op unless [collect_log]).
    The line is evaluated before the call even when logging is off, so
    guard a formatted line with {!logging}:
    [if logging ctx then log ctx (Printf.sprintf ...)]. The runtime's own
    log lines are guarded this way; with logging off, none is formatted. *)
val log : ctx -> string -> unit

(** Is this execution collecting a log ([collect_log])? Draw-free and
    constant for the whole execution. *)
val logging : ctx -> bool

(** [history_point ctx point] files one completed client operation into
    the coverage [history] family ({!Coverage.history}); no-op without a
    coverage map, and [point] is forced only when there is one. Draw-free,
    so recording a {!History} never perturbs the schedule. Harnesses pass
    it to [History.create ~on_complete]. *)
val history_point : ctx -> string Lazy.t -> unit

(** Current scheduling step (useful as a logical clock in models). *)
val step_count : ctx -> int

(** [set_state_name ctx s] declares this machine's current state for
    coverage purposes (a machine-state visit is recorded when coverage is
    on, and subsequent deliveries to this machine carry [s] as the
    receiver state). {!Statemachine} calls this on every transition; plain
    receive-loop machines may call it at interesting phase changes, or not
    at all (they then appear as state ["-"]). *)
val set_state_name : ctx -> string -> unit

(** Machine name for [id] in this execution. *)
val name_of : ctx -> Id.t -> string

(** {1 Virtual time}

    Available when the execution runs with [config.clock = Some _];
    see {!Clock}. *)

(** Whether this execution runs under virtual time. Draw-free, so
    harnesses can branch on it without perturbing clock-off schedules. *)
val clock_on : ctx -> bool

(** Current virtual time when the clock is on; falls back to
    {!step_count} (a logical clock) when off, so [now] is always a
    monotone per-execution timestamp. *)
val now : ctx -> int

(** [send_after ctx target e ~after] delivers [e] to [target] at virtual
    instant [now + after]. With the clock off it degrades to an immediate
    {!send} (the timed aspect is a refinement, not a semantic fork), so
    harness code using it stays runnable — and draw-free — in both modes.
    Sends to halted machines are dropped at fire time, and a {!crash} of
    [target] cancels its in-flight timed deliveries.
    @raise Invalid_argument if [after <= 0] while the clock is on. *)
val send_after : ctx -> Id.t -> Event.t -> after:int -> unit

(** {1 Testing hook} *)

(** A slow reference for the enabled set. The runtime keeps the set of
    enabled machines up to date incrementally, re-examining only the
    machines an operation touched. With the audit on, every scheduling
    decision first compares that set with a full scan of every machine
    and raises [Failure] out of {!execute} on a mismatch. Off by default,
    when it costs one boolean test per step. Meant for tests, not runs. *)
module Enabled_audit : sig
  (** Switch the audit for executions started afterwards, in every
      domain, and reset {!checks}. *)
  val set : bool -> unit

  (** Comparisons made since the last {!set}. *)
  val checks : unit -> int
end
