(** Machine identifiers.

    A machine id is its creation index within one execution, plus a
    human-readable name. Because the testing engine replays executions
    deterministically, creation indices are stable across replays of the
    same schedule, which lets traces refer to machines by index. *)

type t = private { index : int; name : string }

val make : index:int -> name:string -> t

val index : t -> int
val name : t -> string

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** "name(index)" *)
val to_string : t -> string
