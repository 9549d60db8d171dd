(** P#-style declarative state machines (paper §2.1).

    A machine is a set of named states; each state registers action handlers
    keyed by event (constructor) name, plus sets of deferred and ignored
    events. The layer implements P# semantics on top of {!Runtime}:

    - events are dequeued FIFO and dispatched to the current state's handler;
    - a {e deferred} event is stashed and re-delivered when the machine
      enters a state that can handle it;
    - an {e ignored} event is dropped;
    - an event with no handler that is neither deferred nor ignored is an
      {e unhandled-event} bug — except [Event.Halt_event], which halts the
      machine gracefully;
    - [Goto] transitions run the exit action of the source state and the
      entry action of the target state.

    Declared states and handlers are recorded in {!Registry} (Table 1's
    #ST and #AH columns); observed transitions accumulate there too. *)

type 'm transition =
  | Stay
  | Goto of string  (** replace the whole state stack with the target *)
  | Push of string
      (** enter the target keeping the current state below it: events the
          pushed state does not handle fall through to the states below
          (P#'s push transition) *)
  | Pop  (** return to the state below (P#'s pop) *)
  | Halt_machine
  | Unhandled

type 'm handler = Runtime.ctx -> 'm -> Event.t -> 'm transition

type 'm state

(** [state name handlers] declares a state. [handlers] maps event names
    (see {!Event.name}) to actions. [defer]/[ignore_] list event names. *)
val state :
  ?entry:(Runtime.ctx -> 'm -> unit) ->
  ?exit_:(Runtime.ctx -> 'm -> unit) ->
  ?defer:string list ->
  ?ignore_:string list ->
  string ->
  (string * 'm handler) list ->
  'm state

(** [run ctx ~machine ~states ~init model] drives the machine forever (or
    until halt). [machine] is the registry name; [init] the initial state.
    It enters [init] and then serves ({!Runtime.serve}) the {!handler}:
    a state machine is a served machine, so its actions must not block.
    @raise Invalid_argument if [init] or a [Goto] target is not declared. *)
val run :
  Runtime.ctx ->
  machine:string ->
  states:'m state list ->
  init:string ->
  'm ->
  'a

(** [handler ctx ~machine ~states ~init model] registers the machine,
    enters [init] (declaring it and running its entry action) and returns
    the function that handles one delivered event: it dispatches the
    event, then re-delivers, oldest first, every deferred event the
    resulting state stack no longer defers. [run] serves it; a fiber
    machine may instead call it on each event it receives. *)
val handler :
  Runtime.ctx ->
  machine:string ->
  states:'m state list ->
  init:string ->
  'm ->
  Event.t ->
  unit
