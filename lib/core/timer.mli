(** Modeled timer (paper Fig. 9).

    All timing-related nondeterminism is delegated to the testing engine:
    the timer machine loops, nondeterministically deciding at each firing
    whether to deliver a tick to its target. The scheduler is thus free to
    interleave timeout events arbitrarily with regular system events.

    Two drive modes, chosen automatically from the execution's config:

    - {b clock off} (the legacy model): an infinite [Timer_repeat]
      self-send loop. The timer machine is permanently enabled, so a
      harness holding one never quiesces — every execution runs to the
      step bound and deadlock detection is unreachable.
    - {b clock on} ({!Runtime.config}[.clock]): each firing is a clock
      entry armed [period] units of virtual time ahead
      ({!Runtime.send_after}). Between firings the machine is blocked, so
      timer-bearing harnesses quiesce between ticks and the runtime's
      deadlock/liveness machinery stays live; executions end at the
      simulation horizon instead of burning [max_steps].

    In both modes the timer is a served machine ({!Runtime.serve}): each
    firing is one handler call, with no fiber switch. Whether a given
    firing actually delivers its tick is a recorded [nondet] choice, and delivery coalesces
    ({!Runtime.send_unless_pending}) so ticks cannot flood a slow
    target. *)

type Event.t +=
  | Timer_tick  (** default tick delivered to the target *)
  | Timer_repeat  (** internal self-message driving the clock-off loop *)
  | Timer_fire  (** internal timed self-delivery driving the clock-on loop *)
  | Timer_stop  (** stops and halts the timer machine *)

(** [create ctx ~target ()] spawns a timer machine that repeatedly,
    nondeterministically sends [tick ()] (default [Timer_tick]) to
    [target]. Returns the timer's id; send it [Timer_stop] to stop it.
    [period] (default [10]) is the virtual-time interval between firings —
    only meaningful with the clock on; ignored otherwise.
    @raise Invalid_argument if [period <= 0]. *)
val create :
  Runtime.ctx ->
  target:Id.t ->
  ?tick:(unit -> Event.t) ->
  ?period:int ->
  ?name:string ->
  unit ->
  Id.t
