(** Schedule traces.

    A trace is the sequence of nondeterministic choices the engine made
    during one execution: which machine was scheduled at each step, and the
    value of every [nondet] choice. Replaying a trace against the same
    program reproduces the execution deterministically — this is the paper's
    "bug witnessed by a full system trace" (§1, §2). *)

type choice =
  | Schedule of int  (** creation index of the machine scheduled *)
  | Bool of bool     (** outcome of a boolean [nondet] choice *)
  | Int of int       (** outcome of an integer [nondet] choice *)

type t

val empty : t
val of_list : choice list -> t
val to_list : t -> choice list
val length : t -> int
val equal : t -> t -> bool

(** Left fold over the choices in order, without materializing a list. *)
val fold : ('a -> choice -> 'a) -> 'a -> t -> 'a

(** Line-oriented textual format: ["s:3"], ["b:1"], ["i:42"]. *)
val to_string : t -> string

(** Inverse of [to_string]; also accepts one trailing newline (the
    {!save} format). The parse is strict: blank lines (duplicate
    separators) and lines carrying anything beyond one canonical choice
    are rejected — a corrupted trace must fail loudly rather than replay
    a different schedule.
    @raise Failure on malformed input. *)
val of_string : string -> t

val save : path:string -> t -> unit
val load : path:string -> t

(** Mutable builder used by the runtime while an execution unfolds. *)
module Builder : sig
  type trace := t
  type t

  val create : unit -> t

  (** [add_schedule t i] appends [Schedule i]; [add_bool] and [add_int]
      append [Bool] and [Int] choices likewise. Small values reuse
      preallocated choices, so recording a step allocates nothing. *)
  val add_schedule : t -> int -> unit

  val add_bool : t -> bool -> unit
  val add_int : t -> int -> unit
  val length : t -> int
  val finish : t -> trace
end
