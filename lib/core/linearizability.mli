(** Generic linearizability checking over recorded client histories.

    This is the Wing–Gong algorithm with Lowe's refinements (WGL): a
    depth-first search over linearization orders that only ever extends
    the current order with a {e minimal} operation — one whose invocation
    precedes every remaining response — with two standard accelerations:

    - {b memoized state caching}: a (remaining-operations, model-state)
      configuration is explored at most once, which collapses the
      factorial search on histories whose operations commute. The memo
      is a hash table over the model's own [hash_state] and
      [equal_state], so a search node renders nothing;
    - {b partition by key}: when the model declares that operations on
      distinct keys are independent ([key_of]), each key's sub-history is
      checked on its own (P-compositionality) — the dominant cost then
      scales with per-key contention, not history length, keeping hunt
      budgets sub-second.

    The checker is an offline oracle: harnesses record a {!History}
    during the execution and ask for a verdict at the end, so the search
    never perturbs the schedule under test. Operations that never got a
    response ({e pending}) are treated soundly: each may have taken
    effect (it can be linearized anywhere after its invocation, with any
    result) or not (it can be left out entirely).

    Reprs are read only to word a violation: a history the model
    explains is checked without forcing any of its reprs. *)

(** A sequential specification. States must be immutable values —
    [apply] returns the successor rather than mutating — because the
    search backtracks and memoizes on them. *)
type ('state, 'op, 'res) model = {
  init : 'state;
  apply : 'state -> 'op -> 'state * 'res;
      (** the sequential effect of an operation and the result it must
          have produced at its linearization point *)
  match_res : 'res -> 'res -> bool;
      (** [match_res model_res recorded_res]: does the model's result
          account for what the client observed? Usually equality; looser
          for specs with nondeterministic response detail (e.g. etags). *)
  repr_res : 'res -> string;  (** for violation messages *)
  hash_state : 'state -> int;
      (** memo hash: states [equal_state] calls equal must hash equally *)
  equal_state : 'state -> 'state -> bool;
      (** memo equality. It must be sound: two states it calls equal must
          answer every remaining operation alike. The verdict, witness and
          violation string do not depend on the hash; a stricter equality
          only explores more. *)
  key_of : ('op -> string) option;
      (** when [Some f], operations with distinct [f op] commute and the
          checker partitions the history per key *)
}

type verdict =
  | Linearizable of int list
      (** a witness order of operation ids. Under partitioning the
          witness is the per-key witnesses concatenated in key order —
          each internally valid, not a global interleaving. *)
  | Illegal of string
      (** deterministic human-readable violation: the deepest prefix the
          search completed and the first operation no candidate
          linearization could explain *)

val verdict_to_string : verdict -> string

(** [check model history] decides whether [history] is linearizable with
    respect to [model]. Deterministic: the same history and model always
    yield the same verdict (including the witness order and the
    violation string). *)
val check : ('state, 'op, 'res) model -> ('op, 'res) History.t -> verdict

(** [check_operations] is {!check} on an explicit operation list, for
    callers that filter or synthesize operations. *)
val check_operations :
  ('state, 'op, 'res) model -> ('op, 'res) History.operation list -> verdict
