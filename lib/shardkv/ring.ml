type t = {
  version : int;
  n_shards : int;
  replicas : int;
  nodes : string list;
  placements : string list array;
}

(* FNV-1a, 64-bit, then a murmur3-style avalanche, truncated positive:
   placement must be a deterministic pure function of the membership so
   every participant and every replay computes the same ring. The
   finalizer matters — raw FNV of short strings that differ only in the
   last character ("N1#0".."N1#7") clusters a node's vnodes into one
   contiguous arc, collapsing the circle to a single owner. The loop
   keeps [h] a local mutable so the compiler holds it unboxed: a closure
   over an [int64 ref] would box a fresh value per character, and this
   runs on every client and node request. *)
let fnv s =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to String.length s - 1 do
    h :=
      Int64.mul
        (Int64.logxor !h (Int64.of_int (Char.code (String.unsafe_get s i))))
        0x100000001b3L
  done;
  let h = Int64.logxor !h (Int64.shift_right_logical !h 33) in
  let h = Int64.mul h 0xff51afd7ed558ccdL in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  let h = Int64.mul h 0xc4ceb9fe1a85ec53L in
  let h = Int64.logxor h (Int64.shift_right_logical h 33) in
  Int64.to_int (Int64.logand h 0x3fffffffffffffffL)

let vnodes = 8

(* The circle: every node's [vnodes] points, sorted by position. *)
let circle nodes =
  List.concat_map
    (fun node ->
      List.init vnodes (fun i ->
          (fnv (Printf.sprintf "%s#%d" node i), node)))
    nodes
  |> List.sort compare

(* Walk clockwise from the shard's point, wrapping once, and keep the
   first [min replicas (length nodes)] distinct nodes. *)
let walk ~replicas nodes ring shard =
  let point = fnv (Printf.sprintf "shard%d" shard) in
  let after, before = List.partition (fun (p, _) -> p > point) ring in
  let walk = after @ before in
  let want = min replicas (List.length nodes) in
  let rec take acc = function
    | [] -> List.rev acc
    | (_, node) :: rest ->
      if List.mem node acc then take acc rest
      else if List.length acc + 1 = want then List.rev (node :: acc)
      else take (node :: acc) rest
  in
  take [] walk

let compute_placement t shard =
  walk ~replicas:t.replicas t.nodes (circle t.nodes) shard

(* Placement is read on every client request and node operation, so every
   shard's placement is computed once, when the membership is built: one
   circle per ring value, never one per query. *)
let make ~version ~n_shards ~replicas nodes =
  let ring = circle nodes in
  {
    version;
    n_shards;
    replicas;
    nodes;
    placements = Array.init n_shards (walk ~replicas nodes ring);
  }

let create ~n_shards ~replicas nodes =
  if nodes = [] then invalid_arg "Ring.create: no nodes";
  if n_shards <= 0 then invalid_arg "Ring.create: n_shards must be positive";
  if replicas <= 0 then invalid_arg "Ring.create: replicas must be positive";
  make ~version:0 ~n_shards ~replicas nodes

let same_members a b =
  a == b
  || a.version = b.version && a.n_shards = b.n_shards
     && a.replicas = b.replicas && a.nodes = b.nodes

(* [add_node]'s result is a pure function of the ring's membership and
   the newcomer, and harnesses join the same node to the same initial
   ring in every execution, so joins are remembered: a short list of
   (ring, node, result), newest first, shared by all domains. A domain
   that misses builds the ring itself and publishes it with a
   compare-and-set; two domains that miss at once build equal rings, and
   both return the one that ends up in the list. *)
let joins_kept = 16
let joins : (t * string * t) list Atomic.t = Atomic.make []

let add_node t name =
  let rec find = function
    | [] -> None
    | (before, node, after) :: rest ->
      if String.equal node name && same_members before t then Some after
      else find rest
  in
  match find (Atomic.get joins) with
  | Some after -> after
  | None ->
    if List.mem name t.nodes then
      invalid_arg (Printf.sprintf "Ring.add_node: %s already a member" name);
    let built =
      make ~version:(t.version + 1) ~n_shards:t.n_shards
        ~replicas:t.replicas (t.nodes @ [ name ])
    in
    let rec publish () =
      let seen = Atomic.get joins in
      match find seen with
      | Some after -> after
      | None ->
        let kept = List.filteri (fun i _ -> i < joins_kept - 1) seen in
        if Atomic.compare_and_set joins seen ((t, name, built) :: kept) then
          built
        else publish ()
    in
    publish ()

let shard_of_key t key = fnv key mod t.n_shards

let placement t shard =
  if shard >= 0 && shard < t.n_shards then t.placements.(shard)
  else compute_placement t shard

let primary t shard = List.hd (placement t shard)

let moved_shards ~before ~after =
  List.init before.n_shards Fun.id
  |> List.filter (fun s -> primary before s <> primary after s)

let to_string t =
  Printf.sprintf "v%d{%s}" t.version
    (String.concat ","
       (List.init t.n_shards (fun s ->
            Printf.sprintf "%d->%s" s (primary t s))))
