(* The sharded KV harness (ISSUE 7): consistent-hash ring properties,
   catalog hunts for the three seeded rebalancing bugs under crash+delay
   faults on the virtual clock, fixed-variant cleanliness, and the
   history plumbing (on_history capture, coverage [history] family). *)

module E = Psharp.Engine
module Ring = Shardkv.Ring

let harness_ring () = Ring.create ~n_shards:4 ~replicas:2 [ "N0"; "N1" ]

(* --- ring placement ----------------------------------------------------- *)

let test_ring_determinism () =
  let a = harness_ring () and b = harness_ring () in
  Alcotest.(check string) "same nodes, same placement" (Ring.to_string a)
    (Ring.to_string b);
  for s = 0 to a.Ring.n_shards - 1 do
    Alcotest.(check (list string))
      (Printf.sprintf "shard %d placement" s)
      (Ring.placement a s) (Ring.placement b s)
  done;
  List.iter
    (fun k ->
      Alcotest.(check int) (k ^ " shard") (Ring.shard_of_key a k)
        (Ring.shard_of_key b k))
    [ "k0"; "k1"; "k2"; "key with spaces"; "" ]

let test_ring_placement_properties () =
  let check_ring ring =
    let n_nodes = List.length ring.Ring.nodes in
    for s = 0 to ring.Ring.n_shards - 1 do
      let p = Ring.placement ring s in
      Alcotest.(check int)
        (Printf.sprintf "shard %d replica count" s)
        (min ring.Ring.replicas n_nodes)
        (List.length p);
      Alcotest.(check int)
        (Printf.sprintf "shard %d replicas distinct" s)
        (List.length p)
        (List.length (List.sort_uniq compare p));
      List.iter
        (fun n ->
          Alcotest.(check bool)
            (Printf.sprintf "shard %d replica %s is a member" s n)
            true
            (List.mem n ring.Ring.nodes))
        p;
      Alcotest.(check string)
        (Printf.sprintf "shard %d primary heads placement" s)
        (List.hd p) (Ring.primary ring s)
    done
  in
  let before = harness_ring () in
  check_ring before;
  check_ring (Ring.add_node before "N2")

(* The placements cached when a ring is built must equal the from-scratch
   circle walk, for every shard of every membership a sequence of joins
   goes through — including memberships smaller than the replica count. *)
let prop_cached_placement =
  let open QCheck in
  let gen =
    Gen.(
      quad (int_range 1 8) (int_range 1 4) (int_range 1 4) (int_range 0 5))
  in
  Test.make ~name:"cached ring placement = from-scratch circle walk"
    ~count:200 (make gen) (fun (n_shards, replicas, initial, joins) ->
      let name i = Printf.sprintf "node-%d" (i * 7919 mod 1009) in
      let agrees ring =
        List.for_all
          (fun s ->
            Ring.placement ring s = Ring.compute_placement ring s
            && Ring.primary ring s = List.hd (Ring.compute_placement ring s))
          (List.init ring.Ring.n_shards Fun.id)
      in
      let ring =
        Ring.create ~n_shards ~replicas (List.init initial name)
      in
      let rec grow ring k =
        agrees ring
        && (k = joins || grow (Ring.add_node ring (name (initial + k))) (k + 1))
      in
      grow ring 0)

(* The ring hash, pinned to values recorded before [fnv] was rewritten as
   a loop: every placement and key-to-shard mapping rests on it. *)
let test_fnv_pins () =
  List.iter
    (fun (s, h) ->
      Alcotest.(check int) (Printf.sprintf "fnv %S" s) h (Ring.fnv s))
    [
      ("", 3445288215246350630);
      ("a", 189900332573052507);
      ("k0", 381096947850851785);
      ("k17", 3463996043437360565);
      ("N1#0", 4199694744695399149);
      ("N2#7", 2675815177826562274);
      ("shard3", 615512934326046869);
      ("hello world", 4354290353267729877);
      ("\xff\x00\x80", 555574342603804160);
    ]

(* [add_node] remembers its joins; what it returns must be the ring a
   fresh build of the same membership gives. [Ring.create] builds
   placements from scratch (at version 0), and [compute_placement] walks
   the circle without the cache. *)
let same_as_fresh before name after =
  let fresh =
    Ring.create ~n_shards:before.Ring.n_shards ~replicas:before.Ring.replicas
      (before.Ring.nodes @ [ name ])
  in
  after.Ring.version = before.Ring.version + 1
  && after.Ring.n_shards = fresh.Ring.n_shards
  && after.Ring.replicas = fresh.Ring.replicas
  && after.Ring.nodes = fresh.Ring.nodes
  && after.Ring.placements = fresh.Ring.placements
  && List.for_all
       (fun s -> Ring.placement after s = Ring.compute_placement after s)
       (List.init after.Ring.n_shards Fun.id)

let test_ring_join_memo () =
  let before = harness_ring () in
  let a = Ring.add_node before "N2" and b = Ring.add_node before "N2" in
  Alcotest.(check bool) "remembered join = fresh ring" true
    (same_as_fresh before "N2" a);
  Alcotest.(check bool) "asked twice, built once" true (a == b);
  (* a structurally equal ring built apart hits the same entry *)
  Alcotest.(check bool) "equal membership, same join" true
    (Ring.add_node (harness_ring ()) "N2" == a);
  (* a different newcomer or membership gets its own ring *)
  let c = Ring.add_node before "N3" in
  Alcotest.(check (list string)) "other newcomer" [ "N0"; "N1"; "N3" ]
    c.Ring.nodes;
  Alcotest.(check bool) "other newcomer = fresh ring" true
    (same_as_fresh before "N3" c);
  Alcotest.(check bool) "join of the joined ring" true
    (same_as_fresh a "N3" (Ring.add_node a "N3"))

(* Domains that miss at once each build the ring; all of them must get a
   ring equal to a fresh build, and every later ask the published one. *)
let test_ring_join_two_domains () =
  for round = 0 to 19 do
    (* a membership no earlier test (or round) has joined to *)
    let before =
      Ring.create ~n_shards:(3 + round) ~replicas:2
        [ Printf.sprintf "race%d-a" round; Printf.sprintf "race%d-b" round ]
    in
    let name = Printf.sprintf "race%d-c" round in
    let start = Atomic.make false in
    let ask () =
      while not (Atomic.get start) do
        Domain.cpu_relax ()
      done;
      Ring.add_node before name
    in
    let other = Domain.spawn ask in
    Atomic.set start true;
    let mine = ask () in
    let theirs = Domain.join other in
    Alcotest.(check bool) "main domain's ring = fresh" true
      (same_as_fresh before name mine);
    Alcotest.(check bool) "spawned domain's ring = fresh" true
      (same_as_fresh before name theirs);
    let later = Ring.add_node before name in
    Alcotest.(check bool) "later asks get the published ring" true
      (later == mine || later == theirs)
  done

let test_ring_add_node () =
  let before = harness_ring () in
  let after = Ring.add_node before "N2" in
  Alcotest.(check int) "version bumps" (before.Ring.version + 1)
    after.Ring.version;
  Alcotest.(check int) "shards unchanged" before.Ring.n_shards
    after.Ring.n_shards;
  Alcotest.(check (list string))
    "membership in join order"
    (before.Ring.nodes @ [ "N2" ])
    after.Ring.nodes;
  (match Ring.add_node after "N2" with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "re-joining an existing member accepted");
  (* keys hash to shards independently of membership *)
  List.iter
    (fun k ->
      Alcotest.(check int) (k ^ " shard stable across join")
        (Ring.shard_of_key before k) (Ring.shard_of_key after k))
    [ "k0"; "k1"; "k4"; "k63" ]

let test_ring_moved_shards () =
  let before = harness_ring () in
  let after = Ring.add_node before "N2" in
  let moved = Ring.moved_shards ~before ~after in
  (* moved_shards is exactly the primary-differs set... *)
  let recomputed =
    List.filter
      (fun s -> Ring.primary before s <> Ring.primary after s)
      (List.init before.Ring.n_shards Fun.id)
  in
  Alcotest.(check (list int)) "moved = primaries that changed" recomputed moved;
  (* ...and the join is a rebalance, not a reshuffle: something moves,
     but not everything (this is what the hash finalizer buys — raw FNV
     on short vnode labels collapses each node to one arc) *)
  Alcotest.(check bool) "join moves at least one shard" true (moved <> []);
  Alcotest.(check bool) "join does not move every shard" true
    (List.length moved < before.Ring.n_shards)

let test_moving_and_stable_keys () =
  let km, ks = Shardkv.Harness.moving_and_stable_keys () in
  let before = harness_ring () in
  let after = Ring.add_node before "N2" in
  let moved = Ring.moved_shards ~before ~after in
  Alcotest.(check bool) "moving key's shard migrates" true
    (List.mem (Ring.shard_of_key before km) moved);
  Alcotest.(check bool) "stable key's shard stays" false
    (List.mem (Ring.shard_of_key before ks) moved)

(* --- hunts and fixed variants ------------------------------------------- *)

let entry_config ?(executions = 2_000) name =
  let entry = Catalog.Bug_catalog.find name in
  {
    E.default_config with
    max_executions = executions;
    max_steps = entry.Catalog.Bug_catalog.max_steps;
    faults = entry.Catalog.Bug_catalog.faults;
    clock = entry.Catalog.Bug_catalog.clock;
    seed = 1L;
  }

let test_hunts_find_all_bugs () =
  List.iter
    (fun name ->
      let entry = Catalog.Bug_catalog.find name in
      match
        E.run (entry_config name) entry.Catalog.Bug_catalog.harness
      with
      | E.Bug_found (report, _) ->
        let kind = Psharp.Error.kind_to_string report.Psharp.Error.kind in
        Alcotest.(check bool)
          (name ^ " convicted by the linearizability oracle")
          true
          (String.length kind > 0
          && (let sub = "history not linearizable" in
              let n = String.length sub and m = String.length kind in
              let rec go i =
                i + n <= m && (String.sub kind i n = sub || go (i + 1))
              in
              go 0))
      | E.No_bug stats ->
        Alcotest.failf "%s not found in %d executions" name
          stats.E.executions)
    Shardkv.Bug_flags.names

let test_fixed_variants_clean () =
  (* the fixed harness must survive the same faults + clock that expose
     each seeded bug *)
  List.iter
    (fun name ->
      let entry = Catalog.Bug_catalog.find name in
      match
        E.run (entry_config name) entry.Catalog.Bug_catalog.fixed_harness
      with
      | E.No_bug _ -> ()
      | E.Bug_found (report, stats) ->
        Alcotest.failf "fixed %s flagged after %d executions: %s" name
          stats.E.executions
          (Psharp.Error.kind_to_string report.Psharp.Error.kind))
    Shardkv.Bug_flags.names

(* --- history plumbing --------------------------------------------------- *)

let test_on_history_capture () =
  let lines = ref [] in
  let config = { E.default_config with max_executions = 1 } in
  (match
     E.run config
       (Shardkv.Harness.test ~on_history:(fun l -> lines := l :: !lines) ())
   with
   | E.No_bug _ -> ()
   | E.Bug_found (report, _) ->
     Alcotest.failf "fault-free fixed run flagged: %s"
       (Psharp.Error.kind_to_string report.Psharp.Error.kind));
  let lines = List.rev !lines in
  Alcotest.(check int) "six completed operations" 6 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool)
        (l ^ " rendered as client op -> res")
        true
        (String.length l > 0
        && (String.sub l 0 1 = "C")
        && String.split_on_char ' ' l |> List.mem "->"))
    lines

let test_history_coverage_family () =
  let config =
    { E.default_config with max_executions = 5; coverage_mode = E.Collect }
  in
  match E.run config (Shardkv.Harness.test ()) with
  | E.Bug_found (report, _) ->
    Alcotest.failf "fault-free fixed run flagged: %s"
      (Psharp.Error.kind_to_string report.Psharp.Error.kind)
  | E.No_bug stats -> (
    match stats.E.coverage with
    | None -> Alcotest.fail "coverage requested but not returned"
    | Some cov ->
      let totals = Psharp.Coverage.totals cov in
      Alcotest.(check bool) "history coverage points recorded" true
        (totals.Psharp.Coverage.history_points > 0))

let suite =
  [
    Alcotest.test_case "ring determinism" `Quick test_ring_determinism;
    Alcotest.test_case "ring placement properties" `Quick
      test_ring_placement_properties;
    Alcotest.test_case "ring add_node" `Quick test_ring_add_node;
    Alcotest.test_case "ring hash pins" `Quick test_fnv_pins;
    Alcotest.test_case "remembered join = fresh ring" `Quick
      test_ring_join_memo;
    Alcotest.test_case "join remembered from two domains" `Quick
      test_ring_join_two_domains;
    QCheck_alcotest.to_alcotest prop_cached_placement;
    Alcotest.test_case "ring moved_shards" `Quick test_ring_moved_shards;
    Alcotest.test_case "moving and stable keys" `Quick
      test_moving_and_stable_keys;
    Alcotest.test_case "hunts find all seeded bugs" `Slow
      test_hunts_find_all_bugs;
    Alcotest.test_case "fixed variants clean over 2000 executions" `Slow
      test_fixed_variants_clean;
    Alcotest.test_case "on_history captures completed ops" `Quick
      test_on_history_capture;
    Alcotest.test_case "history coverage family" `Quick
      test_history_coverage_family;
  ]
