(** FIFO event inbox with filtered dequeue.

    Machines dequeue in FIFO order; a filtered receive removes the first
    event satisfying the predicate and leaves the rest in order (P#'s
    [Receive] semantics). *)

type t

val create : unit -> t

(** [push t ~sender ~stamp e] enqueues [e]. [sender] is the creation index
    of the sending machine ([-1] when unknown); it tags the entry for
    coverage attribution. [stamp] is the happens-before message stamp
    ({!Hb.on_send}; [-1] when untracked). Neither tag affects delivery
    order or filtering. *)
val push : t -> sender:int -> stamp:int -> Event.t -> unit

val is_empty : t -> bool

(** O(1): the inbox maintains a count. *)
val length : t -> int

(** Position (0 = front) of the first event satisfying [pred], or [-1].
    Positions stay valid until the inbox is next modified. *)
val find : t -> (Event.t -> bool) -> int

(** The sender and stamp tags of the entry at a position.
    @raise Invalid_argument if there is no such entry. *)
val sender_at : t -> int -> int
val stamp_at : t -> int -> int

(** [take t i] removes the entry at position [i] and returns its event;
    the entries behind it keep their order. Read its tags with
    {!sender_at} / {!stamp_at} first. Allocation-free.
    @raise Invalid_argument if there is no such entry. *)
val take : t -> int -> Event.t

(** First event satisfying [pred], removed from the inbox. *)
val pop_first : t -> (Event.t -> bool) -> Event.t option

(** First event satisfying [pred], left in place — what a filtered receive
    {e would} dequeue. Scenario order clauses peek at the imminent dequeue
    without perturbing the queue. *)
val peek_first : t -> (Event.t -> bool) -> Event.t option

(** Does any queued event satisfy [pred]? *)
val exists : t -> (Event.t -> bool) -> bool

(** [exists_name t n]: does any queued event have {!Event.name} [n]? The
    default coalescing test of [Runtime.send_unless_pending], with no
    predicate closure. *)
val exists_name : t -> string -> bool

(** Queued events, front first (for diagnostics). *)
val to_list : t -> Event.t list

val clear : t -> unit
