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

(** Immutable. Stored packed, one unboxed int per choice; reading a
    [Schedule] or [Int] choice below 256, or any [Bool], returns a
    preallocated value, so a reader that only pattern-matches the choices
    allocates nothing. *)
type t

val empty : t
val of_list : choice list -> t
val to_list : t -> choice list
val length : t -> int

(** [get t i] is the [i]th choice, counting from 0.
    @raise Invalid_argument if [i] is out of bounds. *)
val get : t -> int -> choice

val equal : t -> t -> bool

(** Left fold over the choices in order, without materializing a list. *)
val fold : ('a -> choice -> 'a) -> 'a -> t -> 'a

(** 64-bit FNV-1a over the choices, each hashed as its kind (1 for
    [Schedule], 2 for [Bool], 3 for [Int]) then its value ([Bool]s as 0
    or 1). {!Coverage.fingerprint} is this hash. *)
val hash : t -> int64

(** [sub t pos len] is the [len] choices of [t] from index [pos].
    @raise Invalid_argument if they are not all in [t]. *)
val sub : t -> int -> int -> t

(** [append a b]: the choices of [a], then those of [b]. *)
val append : t -> t -> t

(** [map_range t ~pos ~len f] is [t] with each choice [c] at an index in
    [\[pos, pos + len)] replaced by [f c]. [f] is applied in index order,
    so a stateful [f] (a PRNG draw) is deterministic.
    @raise Invalid_argument if the range is not within [t]. *)
val map_range : t -> pos:int -> len:int -> (choice -> choice) -> t

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

(** Mutable builder used by the runtime while an execution unfolds. Each
    domain keeps one recording buffer that its builders reuse from one
    execution to the next, so recording allocates only when a run records
    more choices than any earlier run in that domain. *)
module Builder : sig
  type trace := t
  type t

  val create : unit -> t

  (** [add_schedule t i] appends [Schedule i]; [add_bool] and [add_int]
      append [Bool] and [Int] choices likewise. Recording stores one int
      into the buffer, so a step allocates nothing. *)
  val add_schedule : t -> int -> unit

  val add_bool : t -> bool -> unit
  val add_int : t -> int -> unit
  val length : t -> int

  (** [finish t] returns the choices recorded so far, copied out of the
      buffer (a finished trace never changes when the buffer is reused),
      and empties [t], handing its buffer back to the domain for the next
      builder. *)
  val finish : t -> trace
end
