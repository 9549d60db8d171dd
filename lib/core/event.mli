(** Events exchanged between machines.

    [Event.t] is an extensible variant: each system under test declares its
    own message constructors ([type Event.t += ClientReq of data | ...]).
    The engine identifies events by constructor name (used for tracing and
    for the declarative state-machine layer's handler tables). *)

type t = ..

(** Built-in events understood by the engine. *)
type t +=
  | Halt_event  (** requests the receiving machine to halt *)
  | Unit_event  (** payload-free wake-up *)

(** [name e] is the constructor name of [e], e.g. ["ClientReq"]. Memoized
    per constructor and domain: repeated calls return the same string and
    allocate nothing. *)
val name : t -> string

(** Register a pretty-printer used by [to_string]. Printers are tried most
    recent first; the first to return [Some] wins. *)
val register_printer : (t -> string option) -> unit

(** [to_string e] renders [e] with the registered printers, falling back to
    the bare constructor name. *)
val to_string : t -> string
