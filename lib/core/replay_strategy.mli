(** Deterministic replay of a recorded trace.

    Feeds back the exact choices of a previous execution. If the program has
    changed (or the trace is stale) so that a recorded choice is no longer
    possible, the execution aborts with [Error.Replay_divergence]. *)

(** [make trace] is the strategy of one execution that retraces [trace]. *)
val make : Trace.t -> Strategy.t

(** [lenient ~name ~seed trace] follows [trace] while its choices fit the
    unfolding execution (schedule picks must be enabled, int picks must
    lie in [\[0, bound)], kinds must match). At the first mismatch, or
    once [trace] is spent, it abandons the trace and continues under a
    PRNG seeded with [seed]. The shrinker's candidates and the fuzzer's
    mutants run under it; [name] is the strategy's name. *)
val lenient : name:string -> seed:int64 -> Trace.t -> Strategy.t
