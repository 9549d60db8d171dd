(** Domain-parallel iteration driver.

    Fans a budget of independent iterations (systematic-testing executions)
    across OCaml 5 domains. Work is handed out in {e batches}: a shared
    atomic cursor claims [batch] consecutive global iterations at a time,
    so the only shared-memory traffic on the per-iteration hot path is one
    read of the early-stop bound — progress counters and results
    accumulate in worker-local records and are folded after the join. The
    {e set} of iterations explored (and hence, for seed-derived
    strategies, the set of schedules explored) is identical for every
    worker count and batch size, including the sequential case; only the
    wall-clock order of exploration can vary. One worker is the sequential
    case: worker 0 always runs inline in the calling domain, so a
    one-worker drive spawns no domain at all.

    Each worker builds its own iteration state (strategy factory, PRNGs)
    via [init], inside its own domain. Requested worker counts beyond the
    available cores are clamped to the core count: the iterations are
    independent and minor collections are stop-the-world across domains,
    so oversubscription only multiplies GC barriers without exploring
    anything extra. Setting the environment variable
    [PSHARP_OVERSUBSCRIBE=1] disables the clamp (used by tests to exercise
    the multi-domain machinery on small machines). *)

(** What one iteration of [body] tells the pool. *)
type 'r step =
  | Ran of int  (** the iteration ran this many scheduler steps *)
  | Found of 'r * int  (** it ran, and reports a result *)
  | Final of int
      (** it ran, and no later iteration may start — e.g. it hit the
          run's deadline. Iterations below it still complete. *)

type stats = {
  executions : int;  (** iterations that ran, across all workers *)
  total_steps : int;  (** sum of per-iteration step counts *)
  elapsed : float;  (** wall-clock seconds for the whole fan-out *)
  timed_out : bool;
      (** some worker stopped because [max_seconds] ran out (the iteration
          budget was not exhausted) *)
}

(** [resolve n] is the requested worker count: [n] itself when positive,
    the number of available cores ([Domain.recommended_domain_count])
    when [n = 0].
    @raise Invalid_argument when [n] is negative. *)
val resolve : int -> int

(** [effective_workers ~workers ~max_iterations] is the number of workers
    a drive actually runs: [resolve workers], at most one per iteration
    and, unless [PSHARP_OVERSUBSCRIBE] is set, at most one per core.
    @raise Invalid_argument when [workers] is negative. *)
val effective_workers : workers:int -> max_iterations:int -> int

(** [hunt ~workers ~max_iterations ?max_seconds ~init ~body ()] drives
    [body] over iterations [0 .. max_iterations - 1] and stops early once
    a result is found: the first report min-updates an atomic iteration
    bound, and workers keep completing iterations {e below} the best known
    result (possibly lowering the bound further) while skipping those
    above it. Batch claims are monotone, so every iteration below a
    reported one is guaranteed to have been claimed and run. Returns the
    winning result tagged with its global iteration index — always the
    {e lowest} reporting iteration, so for deterministic iterations the
    winner is identical at every worker count and batch size (only the
    number of higher iterations additionally explored varies with
    timing). A worker exception is re-raised in the calling domain after
    all workers have been joined.

    [batch] (default 16) is the number of iterations claimed per cursor
    bump; the wall-clock deadline is polled once per claimed batch.
    [on_batch state] is called on the worker's own state after each
    claimed batch completes and once more before the worker exits — the
    engine merges per-worker coverage shards there, keeping the
    per-iteration path free of shared mutexes.
    @raise Invalid_argument when [batch] is not positive. *)
val hunt :
  ?batch:int ->
  workers:int ->
  max_iterations:int ->
  ?max_seconds:float ->
  init:(worker:int -> 'w) ->
  ?on_batch:('w -> unit) ->
  body:('w -> iteration:int -> 'r step) ->
  unit ->
  ('r * int) option * stats
