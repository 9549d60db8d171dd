(** The runtime's one view of its observers.

    {!Runtime} reports each event it serializes to the probe with one
    call, and the probe passes it to whichever of the happens-before
    recorder ({!Hb}), the coverage map ({!Coverage}) and the scenario
    observer ({!Scenario.Obs}) the execution runs with. It also answers
    the scenario's steering queries: which machines may be scheduled,
    and which fault a send or crash tick is forced to. Every call is
    draw-free, and a family that is off costs one match per event.
    Machines are named by their creation index. *)

type t

(** No family on; shared, so using it allocates nothing. *)
val none : t

(** One execution's probe ({!none} when all three are [None]). It caches
    coverage symbols per machine, so it serves one execution. *)
val make :
  coverage:Coverage.t option -> hb:Hb.t option ->
  scenario:Scenario.Obs.t option -> t

(** {1 Events} *)

(** Machine [index] was created by [parent] ([-1] for the root). *)
val create : t -> parent:int -> index:int -> name:string -> unit

(** A message was enqueued in [target]'s inbox ({!send}), or put in
    flight to land there later with {!arrive} ({!send_later}); both
    return its hb stamp, or [-1] when hb is off. *)
val send : t -> target:int -> int

val send_later : t -> target:int -> int
val arrive : t -> target:int -> stamp:int -> unit

(** The sender read [target]'s inbox but enqueued nothing (a coalesced
    send, a dropped message). *)
val touch : t -> target:int -> unit

(** A scheduling step: [machine] starts its body, or [receiver] dequeues
    an event [sender] sent with hb stamp [stamp]. *)
val start : t -> machine:int -> unit

val deliver :
  t -> step:int -> time:int -> sender:int -> receiver:int -> stamp:int ->
  Event.t -> unit

val choose_bool : t -> machine:int -> bool -> unit
val choose_int : t -> machine:int -> bound:int -> int -> unit

(** Machine [machine] declared its current state. *)
val state : t -> step:int -> machine:int -> string -> unit

(** A fault of [kind] (["drop"], ["dup"], ["delay"], ["crash"]) hit the
    machine named [target]. *)
val fault : t -> kind:string -> target:string -> unit

(** Machine [target] crashed; it restarts in no declared state (["-"]). *)
val crash : t -> step:int -> time:int -> target:int -> unit

val notify : t -> monitor:string -> unit

(** A client operation completed; forced only when coverage is on. *)
val history : t -> string Lazy.t -> unit

(** {1 Scenario steering} *)

(** [send_faulty] is about to draw its fault coin for [e]: the fault the
    scenario forces on this send, or [None] to draw freely. *)
val pre_send :
  t -> step:int -> time:int -> sender:int -> target:int -> budget:int ->
  Event.t -> Scenario.forced_kind option

(** What that send resolved to. *)
val sent : t -> Scenario.fate -> unit

(** The scenario's crash clauses ([0] without a scenario). *)
val crash_slots : t -> int

(** A steered crash tick over [victims]: see {!Scenario.Obs.crash_victim}
    ([`Draw] without a scenario). *)
val crash_victim :
  t -> step:int -> victims:string list -> [ `Draw | `Skip | `Crash of int ]

(** The next machine to schedule among the [n] enabled ones: the
    strategy's pick, over the machines the scenario admits when one is
    on. *)
val schedule :
  t -> Strategy.t -> enabled:int array -> n:int -> step:int -> int

(** [set_peek t peek x] hands the scenario [peek x] (machine index ↦ name
    of the event it would dequeue next), built only when one is on. *)
val set_peek : t -> ('a -> int -> string option) -> 'a -> unit
