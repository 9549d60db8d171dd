module Sm = Psharp.Statemachine
module R = Psharp.Runtime

type role = Primary | Active | Idle

type replica = {
  rid : int;
  machine_id : Psharp.Id.t;
  mutable role : role;
  mutable building : bool;  (** a state copy is outstanding for this replica *)
}

type pending_request = {
  client : Psharp.Id.t;
  req_id : int;
  op : Service.request;
}

type model = {
  bugs : Bug_flags.t;
  make_service : unit -> Service.t;
  mutable replicas : replica list;
  mutable next_rid : int;
  mutable pending : pending_request list;  (** forwarded, not yet served *)
}

let find_replica m rid = List.find_opt (fun r -> r.rid = rid) m.replicas

let primary m = List.find_opt (fun r -> r.role = Primary) m.replicas

let actives m = List.filter (fun r -> r.role = Active) m.replicas

let view m =
  List.map (fun r -> (r.rid, r.machine_id)) (actives m)

let send_view ctx m =
  match primary m with
  | Some p -> R.send_faulty ctx p.machine_id (Events.Update_view { actives = view m })
  | None -> ()

let launch_replica ctx m ~initial_role =
  let rid = m.next_rid in
  m.next_rid <- rid + 1;
  let manager = R.self ctx in
  let machine_id =
    R.create ctx
      ~name:(Printf.sprintf "Replica%d" rid)
      ~persistent:(fun () ->
        Replica.machine ~restarted:true
          ~silent_restart:m.bugs.Bug_flags.silent_restart ~rid ~manager
          ~make_service:m.make_service ~initial_role:`Idle)
      (Replica.machine ~rid ~manager ~make_service:m.make_service
         ~initial_role)
  in
  let role =
    match initial_role with
    | `Primary -> Primary
    | `Active -> Active
    | `Idle -> Idle
  in
  let r = { rid; machine_id; role; building = false } in
  m.replicas <- m.replicas @ [ r ];
  r

let start_build ctx m target =
  match primary m with
  | Some p ->
    target.building <- true;
    R.send_faulty ctx p.machine_id
      (Events.Build_replica
         { target_rid = target.rid; target = target.machine_id })
  | None -> ()

let forward ctx m (req : pending_request) =
  match primary m with
  | Some p ->
    R.send_faulty ctx p.machine_id
      (Events.Forward_request
         { client = req.client; req_id = req.req_id; op = req.op })
  | None -> ()  (* re-forwarded at the next election *)

let elect ctx m =
  let candidates =
    if m.bugs.Bug_flags.promote_during_copy then
      (* The buggy election also considers idle secondaries that are still
         waiting for their state copy. *)
      List.filter (fun r -> r.role = Active || r.role = Idle) m.replicas
    else actives m
  in
  match candidates with
  | [] -> ()  (* no candidate: wait for a build to complete *)
  | _ ->
    let winner = R.choose ctx candidates in
    winner.role <- Primary;
    R.notify ctx Monitors.primary_name (Events.M_became_primary winner.rid);
    R.send_faulty ctx winner.machine_id (Events.Become_primary { actives = view m });
    if R.logging ctx then
      R.log ctx (Printf.sprintf "elected replica %d as primary" winner.rid);
    (* Re-drive requests that may have died with the old primary. *)
    List.iter (forward ctx m) m.pending

let on_replica_failed ctx m e =
  match e with
  | Events.Replica_failed { rid } ->
    let failed = find_replica m rid in
    m.replicas <- List.filter (fun r -> r.rid <> rid) m.replicas;
    (match failed with
     | Some { role = Primary; _ } -> elect ctx m
     | Some _ | None -> ());
    send_view ctx m;
    (* Launch a replacement idle secondary and build it from the (new)
       primary. *)
    let fresh = launch_replica ctx m ~initial_role:`Idle in
    start_build ctx m fresh;
    Sm.Stay
  | _ -> Sm.Unhandled

let on_copy_done ctx m e =
  match e with
  | Events.Copy_done { rid } -> begin
    match find_replica m rid with
    | None -> Sm.Stay  (* replica died since *)
    | Some r ->
      if not r.building then Sm.Stay  (* stale duplicate copy *)
      else begin
        r.building <- false;
        (* The §5 assertion: only a secondary still waiting for its copy
           may be promoted to active secondary. *)
        if r.role = Primary then
          R.assert_here ctx false
            (Printf.sprintf
               "replica %d was promoted to active secondary while being the \
                primary"
               rid);
        if r.role = Idle then begin
          r.role <- Active;
          R.send_faulty ctx r.machine_id Events.Promote_to_active;
          send_view ctx m;
          (* A crash can leave the cluster with no primary while every
             survivor was still building; the first completed build makes a
             candidate, so elect it now. Draw-free while a primary lives. *)
          match primary m with
          | None -> elect ctx m
          | Some _ -> ()
        end;
        Sm.Stay
      end
  end
  | _ -> Sm.Unhandled

(* A crashed replica announcing itself after restart: demote it, elect a
   replacement primary if it held that role, and rebuild it from the (new)
   primary. Unlike [Replica_failed] the machine is still alive, so it stays
   in the replica set. *)
let on_replica_crashed ctx m e =
  match e with
  | Events.Replica_crashed { rid } ->
    (match find_replica m rid with
     | None -> ()
     | Some r ->
       let was_primary = r.role = Primary in
       r.role <- Idle;
       if was_primary then begin
         R.notify ctx Monitors.primary_name (Events.M_primary_down rid);
         elect ctx m
       end;
       send_view ctx m;
       start_build ctx m r);
    Sm.Stay
  | _ -> Sm.Unhandled

let on_client_request ctx m e =
  match e with
  | Events.Client_request { client; req_id; op } ->
    let req = { client; req_id; op } in
    m.pending <- m.pending @ [ req ];
    R.notify ctx Monitors.liveness_name (Events.M_request req_id);
    forward ctx m req;
    Sm.Stay
  | _ -> Sm.Unhandled

let on_request_served ctx m e =
  match e with
  | Events.Request_served { client; req_id; response } ->
    if List.exists (fun r -> r.req_id = req_id) m.pending then begin
      m.pending <- List.filter (fun r -> r.req_id <> req_id) m.pending;
      R.notify ctx Monitors.liveness_name (Events.M_response req_id);
      R.send_faulty ctx client (Events.Client_response { req_id; response })
    end;
    Sm.Stay
  | _ -> Sm.Unhandled

let machine ~bugs ~make_service ~n_replicas ctx =
  Events.install_printer ();
  let m =
    { bugs; make_service; replicas = []; next_rid = 0; pending = [] }
  in
  (* Bootstrap: one primary, one caught-up active secondary, and the rest
     idle secondaries whose builds start immediately — a cluster still
     warming up, as after a scale-out. *)
  let p = launch_replica ctx m ~initial_role:`Primary in
  R.notify ctx Monitors.primary_name (Events.M_became_primary p.rid);
  if n_replicas > 1 then ignore (launch_replica ctx m ~initial_role:`Active);
  for _ = 3 to n_replicas do
    let idle = launch_replica ctx m ~initial_role:`Idle in
    start_build ctx m idle
  done;
  send_view ctx m;
  let on_inject_failure ctx m _e =
    (match m.replicas with
     | [] -> ()
     | replicas ->
       let victim = R.choose ctx replicas in
       if R.logging ctx then
         R.log ctx
           (Printf.sprintf "injecting failure into replica %d" victim.rid);
       R.send ctx victim.machine_id Events.Fail_replica);
    Sm.Stay
  in
  let on_shutdown ctx m _e =
    List.iter
      (fun r -> R.send ctx r.machine_id Psharp.Event.Halt_event)
      m.replicas;
    Sm.Halt_machine
  in
  let running =
    Sm.state "Running"
      [
        ("Replica_failed", on_replica_failed);
        ("Replica_crashed", on_replica_crashed);
        ("Copy_done", on_copy_done);
        ("Client_request", on_client_request);
        ("Request_served", on_request_served);
        ("Inject_failure", on_inject_failure);
        ("Shutdown_cluster", on_shutdown);
      ]
  in
  Sm.run ctx ~machine:"FailoverManager" ~states:[ running ] ~init:"Running" m
