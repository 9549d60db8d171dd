(** Nondeterministic crash driver.

    A helper machine (in the spirit of {!Timer}) that models node crashes
    as controlled nondeterminism: it draws a crash instant uniformly over
    its lifetime, and when the instant arrives crashes one of the
    execution's currently crashable machines (those created with
    [Runtime.create ~persistent]), picked by another draw. Every decision
    is recorded in the trace, so crash schedules are replayed, shrunk and
    fuzzed exactly like message interleavings (SAMC-style crash/reboot
    under the paper's §2.3 controlled-nondeterminism methodology). *)

type Event.t += Fault_tick  (** internal self-message driving the loop *)

(** [install ctx ()] spawns the driver — {e only} when the execution's
    fault spec arms [crash] with a positive budget; otherwise it is a
    draw-free no-op, so harnesses may call it unconditionally without
    perturbing fault-free schedules. The driver crashes at most
    [max_crashes] machines (default 1, kept low to avoid drowning
    executions in failures) within [max_ticks] turns (default 40), and
    stops early when the shared fault budget runs out.

    Under a scenario with crash clauses ({!Runtime.scenario_crash_slots})
    the driver switches modes: each tick asks {!Runtime.scenario_victim}
    for a victim, which the scenario forces, so crashes land exactly
    where the scenario's [crash] clauses ask; [max_crashes] is raised to
    the scenario's crash slots and [max_ticks] to at least 160 so late
    triggers stay reachable. Without a scenario the draw sequence is
    byte-identical to before.
    @raise Invalid_argument on non-positive [max_crashes]/[max_ticks]. *)
val install : ?max_crashes:int -> ?max_ticks:int -> Runtime.ctx -> unit
