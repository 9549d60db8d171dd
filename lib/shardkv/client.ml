module R = Psharp.Runtime

(* Virtual-time units an operation waits before retransmitting.
   Deliberately below the fault substrate's default delay scale (3): a
   delayed reply can outlive the timeout, so the retransmit-vs-late-reply
   race — the one dedup migration must survive — is reachable. *)
let rpc_timeout = 2

type m = {
  name : string;
  directory : (string * Psharp.Id.t) list;
  history : (Model.op, Model.res) Psharp.History.t;
  mutable ring : Ring.t;
  mutable next_seq : int;
  mutable next_token : int;
}

(* One client operation, end to end: invoke in the history, route to the
   believed primary, chase Wrong_owner redirects (adopting any newer
   ring), retransmit on timeout with the SAME sequence number (the
   owner's dedup cache absorbs re-executions), respond in the history. *)
let run_op ctx m op =
  let id =
    Psharp.History.invoke m.history ~client:m.name ~at:(R.now ctx)
      ~repr:(lazy (Model.op_repr op)) op
  in
  let seq = m.next_seq in
  m.next_seq <- seq + 1;
  let send_to_primary () =
    let shard = Ring.shard_of_key m.ring (Model.key_of op) in
    let owner = List.assoc (Ring.primary m.ring shard) m.directory in
    R.send_faulty ctx owner
      (Events.Client_req
         { client = R.self ctx; client_name = m.name; seq; op });
    let token = m.next_token in
    m.next_token <- token + 1;
    if R.clock_on ctx then
      R.send_after ctx (R.self ctx) (Events.Rpc_timeout { token })
        ~after:rpc_timeout;
    token
  in
  let rec await token =
    match
      R.receive_where ctx (function
        | Events.Client_reply { seq = s; _ } | Events.Wrong_owner { seq = s; _ }
          -> s = seq
        | Events.Rpc_timeout { token = t } -> t = token
        | _ -> false)
    with
    | Events.Client_reply { res; _ } ->
      Psharp.History.respond m.history ~id ~at:(R.now ctx)
        ~repr:(lazy (Model.res_repr res)) res
    | Events.Wrong_owner { ring; _ } ->
      if ring.Ring.version > m.ring.Ring.version then begin
        m.ring <- ring;
        await (send_to_primary ())
      end
      else if R.clock_on ctx then
        (* stale redirect (the node is behind us): re-driving instantly
           would ping-pong without ever quiescing, and the node's pending
           Ring_update only fires at quiescence — park until the armed
           timeout re-sends *)
        await token
      else await (send_to_primary ())
    | Events.Rpc_timeout _ -> await (send_to_primary ())
    | _ -> assert false
  in
  await (send_to_primary ())

let machine ~name ~directory ~ring ~history ~ops ~report_to ctx =
  Events.install_printer ();
  let m = { name; directory; history; ring; next_seq = 0; next_token = 0 } in
  List.iter (run_op ctx m) ops;
  R.send ctx report_to Events.Client_done
