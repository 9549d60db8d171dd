(** Events exchanged between machines.

    [Event.t] is an extensible variant: each system under test declares its
    own message constructors ([type Event.t += ClientReq of data | ...]).
    Harness code names events by bare constructor name ({!name}: traces,
    logs, the declarative state-machine layer's handler tables); the step
    path tells them apart by constructor ({!constructor}), which needs no
    string: coalescing in [Runtime.send_unless_pending] and
    [Statemachine]'s cached dispatch. *)

type t = ..

(** Built-in events understood by the engine. *)
type t +=
  | Halt_event  (** requests the receiving machine to halt *)
  | Unit_event  (** payload-free wake-up *)

(** [name e] is the constructor name of [e], e.g. ["ClientReq"]. Memoized
    per constructor and domain: repeated calls return the same string and
    allocate nothing. *)
val name : t -> string

(** [constructor_id e] identifies [e]'s constructor within the process:
    two events share it iff they were built by the same constructor
    (payloads aside). Allocation-free; constructors that share a bare
    {!name} still get distinct ids. *)
val constructor_id : t -> int

(** An event's extension constructor, compared with [==]: one per
    [type t += C ...] declaration, so constructors that share a bare
    {!name} in different modules are distinct. *)
type constructor

(** [constructor e] is the constructor that built [e], payloads aside.
    Allocation-free, one tag read. *)
val constructor : t -> constructor

(** [has_constructor c e]: was [e] built by [c]? Allocation-free, a
    physical comparison and no tag read. *)
val has_constructor : constructor -> t -> bool

(** Register a pretty-printer used by [to_string]. Printers are tried most
    recent first; the first to return [Some] wins. *)
val register_printer : (t -> string option) -> unit

(** [to_string e] renders [e] with the registered printers, falling back to
    the bare constructor name. *)
val to_string : t -> string
