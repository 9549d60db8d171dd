(** Fault-injection specifications.

    The paper's methodology (§2.3, §3.6) is to model failures as {e
    controlled nondeterminism}: whether and where a fault strikes is just
    another scheduling choice, drawn from the strategy and recorded in the
    trace. This module is the pure description half — which fault kinds are
    armed and under what budget; the actual injection lives in
    {!Runtime.send_faulty}, {!Runtime.crash} and {!Fault_driver}. *)

type kind =
  | Drop  (** the message is silently lost *)
  | Duplicate  (** the message is enqueued twice *)
  | Delay  (** the message is re-enqueued behind k later deliveries *)
  | Crash  (** a persistent machine loses inbox + volatile state, restarts *)

type spec = {
  drop : bool;
  duplicate : bool;
  delay : bool;
  crash : bool;
  budget : int;
      (** total faults injectable per execution, shared across kinds *)
  max_delay : int;
      (** scale of delay latencies: a delayed message is held back
          [1 + nondet_int max_delay] deliveries (clock off) or
          virtual-time units (clock on) *)
}

(** No faults: every [send_faulty] degenerates to a plain [send] with zero
    strategy draws, and no [Fault_driver] should be installed. *)
val none : spec

(** Some fault kind is armed and the budget is positive. *)
val enabled : spec -> bool

(** A message-fault kind (drop/dup/delay) is armed and the budget is
    positive — i.e. [send_faulty] will actually draw. *)
val message_faults : spec -> bool

(** [make ?budget ?max_delay kinds] builds a spec arming exactly [kinds].
    [budget] defaults to 1, [max_delay] to 3.
    @raise Invalid_argument on negative budget or non-positive max_delay. *)
val make : ?budget:int -> ?max_delay:int -> kind list -> spec

(** Armed kinds in canonical order (drop, dup, delay, crash). *)
val kinds : spec -> kind list

val kind_to_string : kind -> string

(** Parse a CLI spec like ["drop,dup,delay,crash"] (budget defaults to 1;
    override via record update), ["none"], or anything {!to_string}
    produces — ["drop,crash(budget=2)"]. Strict: unknown kinds, an empty
    list, or a malformed budget suffix are errors. [max_delay] is not part
    of the grammar, so [parse] of [to_string s] round-trips every spec
    with the default [max_delay]. *)
val parse : string -> (spec, string) result

(** Canonical rendering: ["none"] for a spec with no armed kinds,
    otherwise the comma-separated kind list with a ["(budget=N)"]
    suffix. A fixpoint of [parse]. *)
val to_string : spec -> string
