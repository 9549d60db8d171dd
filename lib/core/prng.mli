(** Deterministic pseudo-random number generator (SplitMix64).

    The systematic testing engine must be reproducible across runs and
    machines, so we implement our own generator rather than relying on the
    stdlib's. SplitMix64 passes BigCrush and supports cheap splitting, which
    gives independent streams per execution iteration. *)

type t

(** [create ~seed] returns a fresh generator. Equal seeds yield equal
    streams. *)
val create : seed:int64 -> t

(** [copy t] is an independent generator with the same current state. *)
val copy : t -> t

(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of [t]'s subsequent output. *)
val split : t -> t

(** [next_int64 t] returns the next raw 64-bit output. *)
val next_int64 : t -> int64

(** [int t bound] returns a uniform integer in [\[0, bound)].
    @raise Invalid_argument if [bound <= 0]. *)
val int : t -> int -> int

(** [bool t] returns a uniform boolean. *)
val bool : t -> bool

(** [float t bound] returns a uniform float in [\[0, bound)]. *)
val float : t -> float -> float

(** [pick t xs] returns a uniform element of [xs].
    @raise Invalid_argument on the empty list. *)
val pick : t -> 'a list -> 'a

(** [shuffle t xs] permutes [xs] in place (Fisher-Yates). *)
val shuffle : t -> 'a array -> unit
