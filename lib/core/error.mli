(** Bug reports produced by the testing engine. *)

type kind =
  | Safety_violation of { monitor : string; message : string }
      (** a safety monitor's assertion failed (§2.4) *)
  | Liveness_violation of { monitor : string; hot_since : int; state : string }
      (** a liveness monitor was hot when the bounded "infinite" execution
          ended (§2.5); [hot_since] is the step at which it last became hot *)
  | Deadlock of { blocked : string list }
      (** no machine is enabled but some are still waiting for events *)
  | Unhandled_event of { machine : string; state : string; event : string }
      (** a machine received an event its current state does not handle *)
  | Assertion_failure of { machine : string; message : string }
      (** a local [assert_] in a machine failed *)
  | Machine_exception of { machine : string; exn : string }
      (** a machine body raised an unexpected exception *)
  | Replay_divergence of { step : int; message : string }
      (** a recorded trace could not be replayed against this program *)

type report = {
  kind : kind;
  step : int;  (** scheduling step at which the bug was detected *)
  trace : Trace.t;  (** full schedule witnessing the bug *)
  log : string list;  (** global-order event log, oldest first *)
}

val kind_to_string : kind -> string
val pp_report : Format.formatter -> report -> unit

(** Raised inside an execution to abort it with a bug; callers outside the
    runtime never see this exception. *)
exception Bug of kind
