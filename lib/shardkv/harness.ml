module R = Psharp.Runtime

(* Cluster shape: small enough that hunt budgets bite, rich enough that a
   join moves some shards and leaves others put. *)
let initial_nodes = [ "N0"; "N1" ]
let joining_node = "N2"
let n_shards = 4
let replicas = 2

(* Rings are immutable, so every execution (and every domain) shares one
   initial ring and its placements. *)
let initial_ring = Ring.create ~n_shards ~replicas initial_nodes

(* The workload is phrased in terms of a key that migrates when N2 joins
   and one that stays put, computed from the ring itself so it tracks the
   hash layout rather than hard-coding it. Computed once, at start-up:
   the layout is a pure function of the constants above. *)
let keys =
  let before = initial_ring in
  let after = Ring.add_node before joining_node in
  let moved = Ring.moved_shards ~before ~after in
  let candidates = List.init 64 (fun i -> Printf.sprintf "k%d" i) in
  let find p =
    List.find (fun k -> p (Ring.shard_of_key before k)) candidates
  in
  ( find (fun s -> List.mem s moved),
    find (fun s -> not (List.mem s moved)) )

let moving_and_stable_keys () = keys

(* Two clients, three ops each, concentrated on the migrating key so the
   handoff window actually sees traffic; [Add] responses carry the new
   value, so lost or double-applied mutations contradict the history even
   without a final read. *)
let workloads =
  let km, ks = keys in
  [
    [ Model.Add (km, 1); Model.Put (ks, 7); Model.Add (km, 2) ];
    [ Model.Add (km, 4); Model.Get ks; Model.Get km ];
  ]

let test ?(bugs = Bug_flags.none) ?on_history ?history_out () ctx =
  Events.install_printer ();
  Psharp.Fault_driver.install ctx;
  let ring = initial_ring in
  let all_nodes = initial_nodes @ [ joining_node ] in
  (* One disk per node, owned here: the [~persistent] hook closes over
     it, so a crash restarts the node on whatever it had durably
     written. *)
  let disks = List.map (fun n -> (n, Node.fresh_disk ring)) all_nodes in
  let router = ref None in
  let directory =
    List.map
      (fun name ->
        let disk = List.assoc name disks in
        let body () ctx =
          Node.machine ~bugs ~name ~router:(Option.get !router) ~disk ctx
        in
        (name, R.create ctx ~name ~persistent:body (body ())))
      all_nodes
  in
  let router_id =
    R.create ctx ~name:"Router" (Router.machine ~ring ~directory)
  in
  router := Some router_id;
  (* every completed operation is also a [history] coverage point, so
     coverage-directed runs can tell schedules apart by client-visible
     outcomes, not just by internal machine states *)
  let history =
    Psharp.History.create
      ~on_complete:(fun line ->
        R.history_point ctx line;
        match on_history with Some f -> f (Lazy.force line) | None -> ())
      ()
  in
  let root = R.self ctx in
  let client_names =
    List.mapi
      (fun i ops ->
        let name = Printf.sprintf "C%d" i in
        ignore
          (R.create ctx ~name
             (Client.machine ~name ~directory ~ring ~history ~ops
                ~report_to:root));
        name)
      workloads
  in
  (* the rebalance races the whole client workload *)
  R.send ctx router_id (Events.Join { node = joining_node });
  List.iter
    (fun _ ->
      ignore
        (R.receive_where ctx (function
          | Events.Client_done -> true
          | _ -> false)))
    client_names;
  R.send ctx router_id Events.Shutdown;
  List.iter (fun (_, id) -> R.send ctx id Events.Shutdown) directory;
  (* saved before the verdict so a violating history is on disk too *)
  Option.iter (fun path -> Psharp.History.save history ~path) history_out;
  (* The oracle: the recorded history must be linearizable w.r.t. the
     sequential KV model. Checking is draw-free, so the verdict is a pure
     function of the schedule — witness traces replay to the exact same
     violation string. *)
  match Psharp.Linearizability.check Model.lin_model history with
  | Psharp.Linearizability.Linearizable _ -> ()
  | Psharp.Linearizability.Illegal msg ->
    R.assert_here ctx false (Printf.sprintf "shardkv: %s" msg)

let test_for_bug name ctx = test ~bugs:(Bug_flags.with_bug name) () ctx
