module Sm = Psharp.Statemachine
module R = Psharp.Runtime

(* Harness-owned "disk": the state an EN keeps across a crash/restart
   (Runtime.crash + [~persistent]). Written draw-free, so attaching a disk
   never perturbs a fault-free schedule. *)
type disk = {
  mutable d_directory : (int * Psharp.Id.t) list;
  mutable d_extents : int list;
  mutable d_timers_created : bool;
}

let fresh_disk () =
  { d_directory = []; d_extents = []; d_timers_created = false }

type model = {
  en : int;
  mgr : Psharp.Id.t;
  relay : Psharp.Id.t;
  center : Extent_center.t;  (* real vNext data structure, re-used (§3.2) *)
  disk : disk;
  mutable directory : (int * Psharp.Id.t) list;
}

let holds m extent = Extent_center.holds m.center ~en:m.en ~extent

(* EN-to-manager messages do not go through the modeled network engine;
   they are delivered to the ExtentManager machine directly (§3.1). A
   periodic report identical to one still queued at the manager is
   coalesced — a node does not stack up identical reports. Identical means
   equal payloads: the event printer renders [To_mgr] payloads injectively
   and every other event in the manager's inbox under another name, so
   this is the test "renders the same" without rendering anything. *)
let same_report report = function
  | Events.To_mgr queued -> (
    match (queued, report) with
    | Extent_manager.Heartbeat a, Extent_manager.Heartbeat b -> a.en = b.en
    | ( Extent_manager.Sync_report a,
        Extent_manager.Sync_report b ) ->
      a.en = b.en && List.equal Int.equal a.extents b.extents
    | _ -> false)
  | _ -> false

let send_report ctx m report =
  R.send_unless_pending ~same:(same_report report) ctx m.mgr
    (Events.To_mgr report)

let on_heartbeat_tick ctx m _e =
  send_report ctx m (Extent_manager.Heartbeat { en = m.en });
  Sm.Stay

let on_sync_tick ctx m _e =
  let extents = Extent_center.extents_of m.center ~en:m.en in
  send_report ctx m (Extent_manager.Sync_report { en = m.en; extents });
  Sm.Stay

let on_copy_request ctx m e =
  match e with
  | Events.Copy_request { extent; requester } ->
    Relay.send ctx ~relay:m.relay ~target:requester
      (Events.Copy_response { extent; ok = holds m extent });
    Sm.Stay
  | _ -> Sm.Unhandled

let on_copy_response ctx m e =
  match e with
  | Events.Copy_response { extent; ok } ->
    if ok && not (holds m extent) then begin
      Extent_center.add m.center ~en:m.en ~extent;
      (* acquired extent data reaches the disk before the ack, so a later
         crash/restart keeps it *)
      if not (List.mem extent m.disk.d_extents) then
        m.disk.d_extents <- m.disk.d_extents @ [ extent ];
      R.notify ctx Repair_monitor.name
        (Events.M_extent_repaired { en = m.en; extent })
    end;
    Sm.Stay
  | _ -> Sm.Unhandled

let on_failure ctx m _e =
  R.notify ctx Repair_monitor.name (Events.M_en_failed m.en);
  Sm.Halt_machine

let on_repair_request ctx m e =
  match e with
  | Events.Repair_request { extent; source } ->
    if not (holds m extent) then begin
      match List.assoc_opt source m.directory with
      | Some source_machine ->
        Relay.send ctx ~relay:m.relay ~target:source_machine
          (Events.Copy_request { extent; requester = R.self ctx })
      | None -> ()
    end;
    Sm.Stay
  | _ -> Sm.Unhandled

let machine ?(bugs = Bug_flags.none) ?disk ?(restarted = false) ~en ~mgr
    ~relay ~initial_extents ctx =
  Events.install_printer ();
  let disk = match disk with Some d -> d | None -> fresh_disk () in
  let m =
    { en; mgr; relay; center = Extent_center.create (); disk; directory = [] }
  in
  (* A restarted node boots from its disk; a fresh node formats the disk
     with its initial extents so a future restart sees them. *)
  let boot_extents = if restarted then disk.d_extents else initial_extents in
  List.iter (fun extent -> Extent_center.add m.center ~en ~extent)
    boot_extents;
  if not restarted then disk.d_extents <- boot_extents;
  (* The timers are separate machines and survive the node's crash; they
     keep ticking at this machine id, so a restart must not create a
     second pair. *)
  if not disk.d_timers_created then begin
    disk.d_timers_created <- true;
    ignore
      (Psharp.Timer.create ctx ~target:(R.self ctx)
         ~tick:(fun () -> Events.Heartbeat_tick)
         ~name:(Printf.sprintf "HbTimer%d" en) ());
    ignore
      (Psharp.Timer.create ctx ~target:(R.self ctx)
         ~tick:(fun () -> Events.Sync_tick)
         ~name:(Printf.sprintf "SyncTimer%d" en) ())
  end;
  (* The correct node also persisted its directory binding, so after a
     restart it resumes serving directly. Under [crash_loses_directory] the
     binding never made it to disk: the node comes back in [Init] with an
     empty directory and defers every repair request until a rebind that
     nobody will send — the stall ExtentNodeCrashLosesBinding exposes. *)
  let recovered =
    restarted
    && (not bugs.Bug_flags.crash_loses_directory)
    && disk.d_directory <> []
  in
  if recovered then m.directory <- disk.d_directory;
  let common =
    [
      ("Heartbeat_tick", on_heartbeat_tick);
      ("Sync_tick", on_sync_tick);
      ("Copy_request", on_copy_request);
      ("Copy_response", on_copy_response);
      ("Fail_en", on_failure);
    ]
  in
  let init =
    Sm.state "Init" ~defer:[ "Repair_request" ]
      (( "Bind_directory",
         fun _ctx m e ->
           match e with
           | Events.Bind_directory d ->
             m.directory <- d;
             Sm.Goto "Active"
           | _ -> Sm.Unhandled )
       :: common)
  in
  let rebind _ctx m e =
    match e with
    | Events.Bind_directory d ->
      m.directory <- d;
      Sm.Stay
    | _ -> Sm.Unhandled
  in
  let active =
    Sm.state "Active"
      (("Repair_request", on_repair_request)
       :: ("Bind_directory", rebind) :: common)
  in
  Sm.run ctx ~machine:"ExtentNode" ~states:[ init; active ]
    ~init:(if recovered then "Active" else "Init")
    m
