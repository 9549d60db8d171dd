(** Per-execution happens-before tracking (vector clocks).

    One recorder observes a single execution as the {!Runtime} unfolds it:
    every scheduling step (a machine start or an event dequeue) gets a
    vector clock — one component per machine — merged from

    - the machine's own previous step,
    - the delivered message's clock (snapshotted at send time), and
    - the conflict clocks of every shared object the step operates on:
      target inboxes (two enqueues into the same inbox conflict, since
      their order is the FIFO order), crash targets ([crash] conflicts
      with everything the crashed machine did or will do), and monitors
      (notifications of one monitor are totally ordered — monitor state
      transitions must be preserved).

    [send_faulty] participates fully: a dropped or coalesced send still
    touched the target (conservatively ordered), a duplicated send is two
    ordinary sends, and a delayed message carries its sender's clock until
    the delivery actually enqueues it — so fault schedules stay sound
    under reduction.

    Two steps are {e independent} when their clocks are incomparable: no
    chain of deliveries, inbox conflicts, crashes or monitor
    notifications orders one before the other. Swapping two adjacent
    independent steps yields an equivalent execution (same Mazurkiewicz
    trace), which is what {!Sleep_strategy} exploits to prune and what
    {!canonical_fingerprint} quotients away.

    A recorder makes {e no} strategy draws and never perturbs the
    schedule; with [Runtime.config.hb = None] the runtime does not touch
    this module at all (same zero-cost contract as logging/coverage,
    pinned by [test/test_golden.ml]). *)

type t

(** A fresh, empty recorder. Cheap: every buffer starts small and grows
    by doubling, so a recorder per execution costs a few hundred words. *)
val create : unit -> t

(** [reset t] empties [t] for the next execution without freeing its
    buffers: afterwards [t] answers every query exactly like
    [create ()]. A caller running many executions reuses one recorder
    through [reset] and allocates nothing once the buffers have grown to
    the longest execution.

    Storage contract: clocks are [int array] rows updated in place, and
    step and message clocks are snapshots copied into one int arena, so
    no array the recorder hands out ({!clock_of}) aliases its state, and
    no value read from it stays valid across [reset]. The recorder is
    not thread-safe; one execution (one domain) owns it at a time. *)
val reset : t -> unit

(** {1 Runtime hooks}

    Called by the {!Runtime} only (in execution order). [machine],
    [parent], [child] and [target] are machine creation indices. *)

(** [on_create t ~parent ~child] registers a machine; the child inherits
    the creator's causal past ([parent = -1] for the root). *)
val on_create : t -> parent:int -> child:int -> unit

(** [begin_step t ~machine ~msg] opens the next scheduling step: [machine]
    starts ([msg = -1]) or dequeues the message stamped [msg]. The
    previous step (if any) is closed. *)
val begin_step : t -> machine:int -> msg:int -> unit

(** [on_send t ~target] records an enqueue into [target]'s inbox by the
    current step and returns a stamp for the message (its clock, carried
    until the dequeue). Two sends to the same inbox are ordered (FIFO
    conflict). *)
val on_send : t -> target:int -> int

(** Like {!on_send} for a fault-delayed message: the stamp snapshots the
    sender's clock now, but the inbox conflict is recorded only when
    {!on_delayed_delivery} actually enqueues it. *)
val on_send_delayed : t -> target:int -> int

(** [on_delayed_delivery t ~target ~msg] enqueues a previously delayed
    message: the message clock joins the inbox conflict clock (the
    delivery position is decided now). May fire outside any open step
    (quiescence flush). *)
val on_delayed_delivery : t -> target:int -> msg:int -> unit

(** A send that read the target's inbox but did not enqueue (coalesced
    [send_unless_pending], or a fault-dropped send): conservatively
    ordered against the target. *)
val on_touch : t -> target:int -> unit

(** [on_crash t ~target] orders the current step against {e everything}
    [target] has done (machine clock and inbox conflict clock, both
    ways): the crash wipes inbox and volatile state, so the restart
    happens-after the crash and the crash happens-after the target's
    past. *)
val on_crash : t -> target:int -> unit

(** [on_notify t ~monitor] joins the per-monitor conflict clock both
    ways: notifications of one monitor are totally ordered. *)
val on_notify : t -> monitor:string -> unit

(** Resolved nondet draws of the current step (folded into the step's
    payload so the canonical fingerprint distinguishes executions that
    differ in data, not just order). *)

val on_bool : t -> bool -> unit
val on_int : t -> int -> unit

(** {1 Queries} *)

(** Number of scheduling steps recorded so far. *)
val steps : t -> int

(** Creation index of the machine that executed step [i] (0-based). *)
val machine_of : t -> int -> int

(** Copy of step [i]'s vector clock, indexed by machine creation index
    (component [m] counts the steps of machine [m] in the step's causal
    past, the step itself included). Components past the end of the
    array read as 0; its length is not part of the clock. *)
val clock_of : t -> int -> int array

(** [ordered t i j]: does step [i] happen-before step [j]? (Reflexive:
    [ordered t i i] holds.) *)
val ordered : t -> int -> int -> bool

(** [independent t i j]: neither step happens-before the other.
    Symmetric and irreflexive by construction. *)
val independent : t -> int -> int -> bool

(** Canonical Mazurkiewicz-trace fingerprint: the steps are re-linearized
    greedily by lowest machine index among the causally ready ones
    (deterministic for a given partial order), and the resulting
    canonical sequence of (machine, step payload) pairs is hashed.
    Executions that differ only by swaps of independent steps map to the
    same fingerprint; their raw schedule fingerprints
    ({!Coverage.fingerprint}) differ. *)
val canonical_fingerprint : t -> int64

(** {1 Happening feed}

    A chronological log of cross-machine effects, consumed incrementally
    by {!Sleep_strategy} to wake sleeping machines. *)

type happening =
  | Touch of { target : int; actor : int }
      (** [actor]'s step enqueued into / read / crashed [target]'s inbox
          ([actor = -1] for a quiescence flush of a delayed message —
          attribution then follows the original sender) *)
  | Notify of { actor : int; monitor : int }
      (** [actor] notified the monitor with interned id [monitor] *)

(** Number of happenings recorded so far. *)
val happenings : t -> int

val happening : t -> int -> happening
