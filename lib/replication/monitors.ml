module M = Psharp.Monitor

let safety_name = "ReplicationSafety"
let liveness_name = "ReplicationLiveness"

let safety ~replica_target () =
  let current_seq = ref 0 in
  let stored : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  M.make ~name:safety_name ~initial:"Watching"
    ~states:[ ("Watching", M.Neutral) ]
    (fun m e ->
      match e with
      | Events.M_req seq ->
        current_seq := seq;
        Hashtbl.reset stored
      | Events.M_stored { node_index; seq } ->
        if seq = !current_seq then Hashtbl.replace stored node_index ()
      | Events.M_ack seq ->
        let replicas = Hashtbl.length stored in
        if replicas < replica_target then
          M.assert_ m false
            (Printf.sprintf
               "Ack for request %d sent with only %d of %d true replicas" seq
               replicas replica_target)
      | _ -> ())

let liveness () =
  M.make ~name:liveness_name ~initial:"Acked"
    ~states:[ ("Acked", M.Cold); ("WaitingForAck", M.Hot) ]
    (fun m e ->
      match e with
      | Events.M_req _ -> M.goto m "WaitingForAck"
      | Events.M_ack _ -> M.goto m "Acked"
      | _ -> ())

let all ~replica_target () = [ safety ~replica_target (); liveness () ]
