(** Schedule-trace shrinking.

    A found bug is witnessed by a schedule trace (paper §2); shorter
    witnesses are easier to debug. The shrinker delta-debugs the choice
    sequence: it removes chunks of choices and re-executes with a {e
    lenient} replay strategy — recorded choices are followed while they
    remain valid, and once the trace is exhausted (or a recorded choice is
    no longer possible) the run continues under a seeded random strategy.
    A candidate is kept when the execution still reports a bug of the same
    kind; the final report carries the full (exactly replayable) trace of
    the best execution found.

    This is an extension over the paper (P# reports the original witness);
    it composes with [Engine.replay]. *)

(** [shrink config ~monitors report body] returns a report whose trace is
    no longer than the original (and usually much shorter), still failing
    with the same kind of bug. [rounds] bounds the delta-debugging passes
    (default 3). *)
val shrink :
  ?rounds:int ->
  ?monitors:(unit -> Monitor.t list) ->
  Engine.config ->
  Error.report ->
  (Runtime.ctx -> unit) ->
  Error.report
