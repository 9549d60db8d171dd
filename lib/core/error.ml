type kind =
  | Safety_violation of { monitor : string; message : string }
  | Liveness_violation of { monitor : string; hot_since : int; state : string }
  | Deadlock of { blocked : string list }
  | Unhandled_event of { machine : string; state : string; event : string }
  | Assertion_failure of { machine : string; message : string }
  | Machine_exception of { machine : string; exn : string }
  | Replay_divergence of { step : int; message : string }

type report = {
  kind : kind;
  step : int;
  trace : Trace.t;
  log : string list;
}

let kind_to_string = function
  | Safety_violation { monitor; message } ->
    Printf.sprintf "safety violation in monitor %s: %s" monitor message
  | Liveness_violation { monitor; hot_since; state } ->
    Printf.sprintf
      "liveness violation: monitor %s stuck in hot state %s since step %d"
      monitor state hot_since
  | Deadlock { blocked } ->
    Printf.sprintf "deadlock: machines [%s] are blocked and none is enabled"
      (String.concat "; " blocked)
  | Unhandled_event { machine; state; event } ->
    Printf.sprintf "machine %s in state %s cannot handle event %s" machine
      state event
  | Assertion_failure { machine; message } ->
    Printf.sprintf "assertion failed in machine %s: %s" machine message
  | Machine_exception { machine; exn } ->
    Printf.sprintf "machine %s raised: %s" machine exn
  | Replay_divergence { step; message } ->
    Printf.sprintf "replay diverged at step %d: %s" step message


let pp_report fmt r =
  Format.fprintf fmt "@[<v>bug at step %d: %s@,trace length (#NDC): %d@]"
    r.step (kind_to_string r.kind) (Trace.length r.trace)

exception Bug of kind
