module Sm = Psharp.Statemachine
module R = Psharp.Runtime

type model = {
  ext_mgr : Extent_manager.t;
  mutable directory : (int * Psharp.Id.t) list;
}

let machine ?(heartbeat_misses = 3) ~bugs ~replica_target ~relay ctx =
  Events.install_printer ();
  (* The modeled network engine (Fig. 7): intercepts the manager's outbound
     messages and dispatches them through the testing engine. *)
  let directory = ref [] in
  let net : Extent_manager.network_engine =
    {
      send_repair_request =
        (fun ~en ~extent ~source ->
          match List.assoc_opt en !directory with
          | Some target ->
            Relay.send ctx ~relay ~target
              (Events.Repair_request { extent; source })
          | None -> ());
    }
  in
  let ext_mgr =
    Extent_manager.create { Extent_manager.replica_target; heartbeat_misses; bugs } net
  in
  ignore
    (Psharp.Timer.create ctx ~target:(R.self ctx)
       ~tick:(fun () -> Events.Expiration_tick)
       ~name:"ExpirationTimer" ());
  ignore
    (Psharp.Timer.create ctx ~target:(R.self ctx)
       ~tick:(fun () -> Events.Repair_tick)
       ~name:"RepairTimer" ());
  let m = { ext_mgr; directory = [] } in
  let handlers =
    [
      ( "To_mgr",
        fun ctx m e ->
          match e with
          | Events.To_mgr msg ->
            ignore ctx;
            Extent_manager.process_message m.ext_mgr msg;
            Sm.Stay
          | _ -> Sm.Unhandled );
      ( "Expiration_tick",
        fun ctx m _e ->
          let expired = Extent_manager.run_expiration_loop m.ext_mgr in
          if expired <> [] && R.logging ctx then
            R.log ctx
              (Printf.sprintf "expired ENs [%s]"
                 (String.concat ";" (List.map string_of_int expired)));
          Sm.Stay );
      ( "Repair_tick",
        fun _ctx m _e ->
          ignore (Extent_manager.run_repair_loop m.ext_mgr);
          Sm.Stay );
      ( "Bind_directory",
        fun _ctx m e ->
          match e with
          | Events.Bind_directory d ->
            m.directory <- d;
            directory := d;
            Sm.Stay
          | _ -> Sm.Unhandled );
    ]
  in
  let active = Sm.state "Active" handlers in
  Sm.run ctx ~machine:"ExtentManager" ~states:[ active ] ~init:"Active" m
