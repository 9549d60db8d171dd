(** Randomized priority-based scheduler (paper §6.2; Burckhardt et al.,
    ASPLOS 2010 — "PCT").

    Each machine is assigned a random priority when first seen; at every
    scheduling point the highest-priority enabled machine runs. The strategy
    additionally places [change_points] priority-change points at random
    steps of the execution; when one is hit, the machine about to run is
    demoted below every other machine. The paper configures a budget of
    2 change points per execution.

    Draw protocol (fixed: golden digests and a reference property in the
    test suite pin it). Execution [iteration] draws from one stream,
    seeded from [seed] and [iteration]:
    - at creation, [min change_points max_steps] distinct change steps in
      [\[0, max_steps)], by rejection;
    - then, interleaved in call order, [next_bool] and [next_int] draws and
      initial priorities. A pick over [n >= 2] enabled machines draws the
      priority of each machine not yet drawn, in ascending creation index;
      a pick over one machine draws nothing (if it is demoted undrawn, it
      never draws).

    A change step fires at the first pick whose [step] reaches it; the
    runtime's [step] rises by one per pick, so that is the pick at that
    step. *)

val factory :
  seed:int64 -> change_points:int -> max_steps:int -> unit -> Strategy.factory
(** @raise Invalid_argument if [change_points] or [max_steps] is negative. *)
