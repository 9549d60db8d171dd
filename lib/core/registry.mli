(** Global statistics registry backing the Table 1 reproduction.

    Machine specifications register themselves (name, declared states,
    declared action handlers); the runtime records observed state
    transitions. [Registry] deduplicates by machine name, so repeated
    executions do not inflate the counts of declared artifacts, while
    transition counts accumulate distinct (from, to) edges. *)

type kind = Machine | Monitor

type machine_stats = {
  machine : string;
  kind : kind;
  states : int;
  handlers : int;
}

val register_machine :
  machine:string -> kind:kind -> states:int -> handlers:int -> unit

val record_transition : machine:string -> from_:string -> to_:string -> unit

(** All registered machines, in registration order. *)
val machines : unit -> machine_stats list

(** Number of distinct observed (from, to) transitions for [machine]. *)
val transitions : machine:string -> int

(** Forget everything (used by tests). *)
val reset : unit -> unit
