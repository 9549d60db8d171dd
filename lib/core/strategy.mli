(** Scheduling strategies.

    A strategy resolves every nondeterministic choice of one execution:
    which enabled machine runs next, and the value of each [nondet] choice.
    The engine asks the factory for a fresh strategy before each execution;
    factories may carry state across executions (e.g. DFS backtracking). *)

type t = {
  name : string;
  next_schedule : enabled:int array -> n:int -> step:int -> int;
      (** pick one of [enabled.(0 .. n-1)] (machine creation indices,
          sorted ascending). Only the first [n] slots are meaningful: the
          array is a scratch buffer the runtime reuses across steps to
          keep the scheduling hot path allocation-free (and keeps
          up to date from step to step), so strategies must neither write
          to it, read beyond [n - 1], nor retain it (copy the prefix if
          the choice point must be recorded, as DFS does). [step] is the
          number of earlier picks in the execution: it starts at 0 and
          rises by one per [next_schedule] call ([next_bool] and
          [next_int] receive the number of picks made so far). *)
  next_bool : step:int -> bool;
  next_int : bound:int -> step:int -> int;  (** in [\[0, bound)] *)
}

type factory = {
  factory_name : string;
  parallel_safe : bool;
      (** [fresh] carries no state across iterations, so disjoint iteration
          sets may be explored concurrently by independent factory copies
          (one per domain). Enumerative strategies (DFS, replay) are not
          parallel-safe: their factory mutates shared search state. *)
  fresh : iteration:int -> t option;
      (** strategy for execution number [iteration] (0-based), or [None]
          when the strategy has exhausted its search space *)
  feedback : (trace:Trace.t -> novelty:Coverage.novelty -> unit) option;
      (** coverage feedback channel: when present, the engine calls it
          after each execution with that execution's full choice trace and
          the per-family {!Coverage.novelty} breakdown of absorbing its
          coverage — which families (states, triples, fault points, hb
          partial orders, ...) the execution was the first to reach.
          Feedback-directed strategies (fuzz) use it to grow their corpus
          and assign mutation energy; [None] for everything else. *)
}

(** A factory for strategies built per-iteration from a seed: it never
    exhausts, is [parallel_safe] and takes no [feedback]. *)
val stateless : name:string -> (iteration:int -> t) -> factory

(** [enabled_mem enabled n m]: is [m] among [enabled.(0 .. n-1)]? *)
val enabled_mem : int array -> int -> int -> bool
