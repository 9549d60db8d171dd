module R = Psharp.Runtime

type scenario =
  | Initial_replication
  | Fail_and_repair

let test ?(bugs = Bug_flags.none) ?(n_nodes = 3) ?(replica_target = 3)
    ?(n_extents = 1) ?(lossy_network = false) ?(warmup_ticks = 8) ~scenario ()
    ctx =
  Events.install_printer ();
  Psharp.Registry.register_machine ~machine:"TestingDriver"
    ~kind:Psharp.Registry.Machine ~states:2 ~handlers:2;
  let relay =
    R.create ctx ~name:"Network" (Relay.machine ~lossy:lossy_network)
  in
  let mgr =
    R.create ctx ~name:"ExtentManager"
      (Mgr_machine.machine ~bugs ~replica_target ~relay)
  in
  let extents = List.init n_extents Fun.id in
  let initial_extents en =
    match scenario with
    | Initial_replication ->
      (* each extent starts with a single replica, spread over the nodes *)
      List.filter (fun extent -> extent mod n_nodes = en) extents
    | Fail_and_repair -> extents
  in
  (* One disk per node (including the fresh node Fail_and_repair adds), so
     crash faults can restart an EN from its persistent state. *)
  let disks = Array.init (n_nodes + 1) (fun _ -> Extent_node.fresh_disk ()) in
  let make_node en ~initial_extents =
    R.create ctx
      ~name:(Printf.sprintf "EN%d" en)
      ~persistent:(fun () ->
        Extent_node.machine ~bugs ~disk:disks.(en) ~restarted:true ~en ~mgr
          ~relay ~initial_extents:[])
      (Extent_node.machine ~bugs ~disk:disks.(en) ~en ~mgr ~relay
         ~initial_extents)
  in
  let nodes =
    List.init n_nodes (fun en ->
        (en, make_node en ~initial_extents:(initial_extents en)))
  in
  let bind directory =
    (* The binding is durable: it reaches every node's disk before the
       Bind_directory events go out, mirroring a config store written ahead
       of the notification fan-out. Disk writes draw nothing. *)
    List.iter
      (fun (en, _) -> disks.(en).Extent_node.d_directory <- directory)
      directory;
    R.send ctx mgr (Events.Bind_directory directory);
    List.iter
      (fun (_, node) -> R.send ctx node (Events.Bind_directory directory))
      directory
  in
  bind nodes;
  (* No-op unless the engine runs with crash faults armed. *)
  Psharp.Fault_driver.install ctx;
  let layout =
    List.map
      (fun extent ->
        ( extent,
          List.filter_map
            (fun (en, _) ->
              if List.mem extent (initial_extents en) then Some en else None)
            nodes ))
      extents
  in
  R.notify ctx Repair_monitor.name (Events.M_initial_extents layout);
  match scenario with
  | Initial_replication -> ()
  | Fail_and_repair ->
    (* Fail one EN at a nondeterministic time, then launch a fresh one. *)
    let timer =
      Psharp.Timer.create ctx ~target:(R.self ctx)
        ~tick:(fun () -> Events.Driver_tick)
        ~name:"DriverTimer" ()
    in
    (* Let the system warm up (nodes register, sync) before failing one, as
       the stress tests the paper describes fail nodes of a live system.
       The phase markers feed the coverage maps (the driver is a plain
       receive loop, not a Statemachine). *)
    R.set_state_name ctx "Warmup";
    let ticks_seen = ref 0 in
    let rec wait_for_injection () =
      match R.receive ctx with
      | Events.Driver_tick ->
        incr ticks_seen;
        if !ticks_seen > warmup_ticks && R.nondet ctx then begin
          R.set_state_name ctx "Injecting";
          let victim_en = R.nondet_int ctx n_nodes in
          let victim = List.assoc victim_en nodes in
          R.send ctx victim Events.Fail_en;
          if R.logging ctx then
            R.log ctx (Printf.sprintf "injected failure into EN%d" victim_en);
          let fresh_en = n_nodes in
          let fresh = make_node fresh_en ~initial_extents:[] in
          bind (nodes @ [ (fresh_en, fresh) ]);
          R.send ctx timer Psharp.Timer.Timer_stop;
          R.set_state_name ctx "Repairing"
        end
        else wait_for_injection ()
      | _ -> wait_for_injection ()
    in
    wait_for_injection ()

let monitors ?(replica_target = 3) () =
  [ Repair_monitor.create ~replica_target () ]
