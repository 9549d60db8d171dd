(** Client-operation histories.

    A history records the {e invocations} and {e responses} of client
    operations against a system under test — who asked for what, when, and
    what came back — so a generic correctness oracle
    ({!Linearizability}) can judge the execution afterwards instead of a
    bespoke in-harness spec check. This is the WGL-style testing
    methodology ("Model-based Testing of Practical Distributed Systems in
    Actor Model"): every new workload is a client history, not a new spec
    harness.

    A recorder is created {e inside} the harness body, so every execution
    gets a fresh one, and recording is draw-free: attaching a history to a
    harness never perturbs the schedule explored (the same zero-cost
    contract as logging and coverage).

    Reprs are rendered only when read. A harness hands {!invoke} and
    {!respond} a [string Lazy.t]; nothing forces it unless the history
    is serialized, a violation message names the operation, or a
    completion line is wanted (coverage on, or a harness hook reading
    it). A passing check with coverage off renders no repr at all.

    Each event carries two timestamps:
    - [at]: the {e virtual} time ({!Runtime.now}) at which it happened —
      coarse under the clock, the step count otherwise;
    - a {e sequence number} assigned by the recorder in recording order.
      The runtime serializes the whole system onto one thread, so
      recording order {e is} real-time order; the checker derives the
      precedence relation (op A finished before op B started) from
      sequence numbers, never from the coarser virtual clock.

    Histories serialize to a strict line-oriented text format (the same
    philosophy as {!Trace}), so a witness trace can be stored alongside
    the history it produced and replays can be checked byte-for-byte. *)

type ('op, 'res) operation = {
  id : int;  (** dense, assigned in invocation order *)
  client : string;  (** invoking machine's name (no spaces) *)
  op : 'op;
  op_repr : string Lazy.t;
      (** rendering of [op]; stable, single-line. Read it through
          {!render_op}, which enforces the single-line rule. *)
  invoked_at : int;  (** virtual timestamp of the invocation *)
  invoke_seq : int;  (** recording-order sequence of the invocation *)
  mutable result : ('res * string Lazy.t * int * int) option;
      (** [(res, res_repr, responded_at, respond_seq)]; [None] while the
          operation is pending. Read [res_repr] through {!render_result}. *)
}

type ('op, 'res) t

(** [create ()] makes an empty recorder. [on_complete], when given, is
    called at every {!respond} with the completed operation's line
    ["client op_repr -> res_repr"], unrendered — the hook harnesses use
    to file operations into the coverage [history] family
    ({!Runtime.history_point}), which forces it only when coverage is
    on. Forcing the line raises [Invalid_argument] if either repr
    contains a newline. *)
val create : ?on_complete:(string Lazy.t -> unit) -> unit -> ('op, 'res) t

(** [invoke t ~client ~at ~repr op] records an invocation and returns the
    operation's id. [repr] is forced only when read.
    @raise Invalid_argument if [client] contains a newline or a space. *)
val invoke :
  ('op, 'res) t -> client:string -> at:int -> repr:string Lazy.t -> 'op -> int

(** [respond t ~id ~at ~repr res] completes operation [id]. [repr] is
    forced only when read.
    @raise Invalid_argument on an unknown id or a double response. *)
val respond :
  ('op, 'res) t -> id:int -> at:int -> repr:string Lazy.t -> 'res -> unit

(** [render_op o] forces [o.op_repr].
    @raise Invalid_argument if it contains a newline. *)
val render_op : ('op, 'res) operation -> string

(** [render_result o] forces the result repr of a completed operation.
    @raise Invalid_argument if it contains a newline or [o] is pending. *)
val render_result : ('op, 'res) operation -> string

(** Operations in id (invocation) order. The checker treats an operation
    with [result = None] as pending: it may have taken effect or not. *)
val operations : ('op, 'res) t -> ('op, 'res) operation list

(** Total operations invoked. *)
val size : ('op, 'res) t -> int

(** Operations that have received a response. *)
val completed : ('op, 'res) t -> int

(** {1 Serialization}

    One event per line, in recording order:
    ["i <id> <seq> <at> <client> <op_repr>"] for invocations and
    ["r <id> <seq> <at> <res_repr>"] for responses. Reprs may contain
    spaces (they extend to the end of the line). [of_string] is strict in
    the {!Trace.of_string} sense: blank lines, malformed fields and
    non-canonical spellings are rejected — a corrupted history must fail
    loudly. A deserialized history carries the reprs as its ops and
    results, which is enough for round-trip checks and reporting;
    re-checking against a typed model starts from the recording harness,
    not from a file. Rendering forces every repr; one containing a
    newline raises [Invalid_argument]. *)

val to_string : ('op, 'res) t -> string

val of_string : string -> (string, string) t

val save : path:string -> ('op, 'res) t -> unit

val load : path:string -> (string, string) t
