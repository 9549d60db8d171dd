(** Consistent-hash ring: shard placement over a changing node set.

    Keys hash to one of [n_shards] fixed shards; shards are placed on
    nodes by consistent hashing — every node projects [vnodes] points
    onto a hash circle, and a shard lives on the first [replicas]
    distinct nodes clockwise from its own point. Adding a node therefore
    moves only the shards whose closest points the newcomer captures,
    which is the whole point: a rebalance migrates a few shards, not the
    keyspace.

    Rings are pure immutable values carried in messages; the [version]
    tags each ring change so protocol participants can order the rings
    they hear about (stale-ring routing is one of the bug families the
    shardkv harness hunts). All placement is deterministic — same nodes,
    same placement — so replays are exact. *)

type t = private {
  version : int;
  n_shards : int;
  replicas : int;
  nodes : string list;  (** membership in join order *)
  placements : string list array;
      (** [placements.(s)] is {!placement} of shard [s], computed once when
          the ring is built *)
}

(** [create ~n_shards ~replicas nodes] builds version-0 membership.
    @raise Invalid_argument on empty [nodes], non-positive [n_shards],
    or non-positive [replicas]. *)
val create : n_shards:int -> replicas:int -> string list -> t

(** [add_node t name] joins a node: same shards, version bumped. The
    result is remembered, so joining the same node to a ring with the
    same membership again returns the ring already built (safe across
    domains).
    @raise Invalid_argument if [name] is already a member. *)
val add_node : t -> string -> t

(** The ring's hash: 64-bit FNV-1a with a murmur3-style finalizer,
    truncated to a non-negative [int]. Keys, vnodes (["N1#0"]) and shards
    (["shard3"]) are placed on the circle by it. *)
val fnv : string -> int

(** The shard a key hashes to, in [0, n_shards). *)
val shard_of_key : t -> string -> int

(** Replica placement of a shard: [min replicas (length nodes)] distinct
    nodes clockwise from the shard's point; the head is the primary. *)
val placement : t -> int -> string list

(** The uncached {!placement}: builds the hash circle of [t]'s nodes and
    walks it from the shard's point. The reference the cached placements
    are tested against. *)
val compute_placement : t -> int -> string list

(** [primary t shard] = [List.hd (placement t shard)]. *)
val primary : t -> int -> string

(** Shards whose {e primary} differs between two rings — the migrations a
    rebalance from [before] to [after] must perform. *)
val moved_shards : before:t -> after:t -> int list

(** ["v<version>{shard->primary,...}"], for logs and debugging. *)
val to_string : t -> string
