module R = Psharp.Runtime

(* Virtual-time units between handoff retransmissions. Above the default
   delay-fault latency scale so a merely-slow hop usually beats the
   retry, but low enough that a crashed receiver re-drives quickly. *)
let retry_period = 4

type migration = {
  shard : int;
  source : Psharp.Id.t;
  mutable acked : bool;
}

type m = {
  directory : (string * Psharp.Id.t) list;
  mutable ring : Ring.t;
  mutable next : Ring.t option;  (* ring being migrated to, if any *)
  mutable moves : migration list;
}

let node m name = List.assoc name m.directory

let broadcast ctx m ring =
  List.iter
    (fun (_, id) -> R.send_faulty ctx id (Events.Ring_update { ring }))
    m.directory

let start_handoff ctx m next mv =
  R.send_faulty ctx mv.source
    (Events.Handoff_request
       {
         shard = mv.shard;
         version = next.Ring.version;
         dest = node m (Ring.primary next mv.shard);
         ring = next;
       });
  if R.clock_on ctx then
    R.send_after ctx (R.self ctx)
      (Events.Retry_handoff { shard = mv.shard; version = next.Ring.version })
      ~after:retry_period

let maybe_commit ctx m =
  match m.next with
  | Some next when List.for_all (fun mv -> mv.acked) m.moves ->
    m.ring <- next;
    m.next <- None;
    List.iter
      (fun mv ->
        R.send_faulty ctx mv.source
          (Events.Release
             { shard = mv.shard; version = next.Ring.version; ring = next }))
      m.moves;
    m.moves <- [];
    broadcast ctx m next;
    R.set_state_name ctx "Steady"
  | _ -> ()

let machine ~ring ~directory ctx =
  Events.install_printer ();
  let m = { directory; ring; next = None; moves = [] } in
  R.set_state_name ctx "Steady";
  R.serve ctx (function
    | Events.Join { node = name } ->
      (* one ring change in flight at a time; the harness drives a
         single join *)
      assert (m.next = None);
      (* remembered by [Ring.add_node]: the harness joins the same node
         to the same initial ring in every execution *)
      let next = Ring.add_node m.ring name in
      let moved = Ring.moved_shards ~before:m.ring ~after:next in
      if moved = [] then begin
        m.ring <- next;
        broadcast ctx m next
      end
      else begin
        m.next <- Some next;
        m.moves <-
          List.map
            (fun shard ->
              { shard; source = node m (Ring.primary m.ring shard);
                acked = false })
            moved;
        R.set_state_name ctx "Rebalancing";
        List.iter (start_handoff ctx m next) m.moves
      end
    | Events.Handoff_ack { shard; version } ->
      (match m.next with
       | Some next when version = next.Ring.version ->
         List.iter
           (fun mv -> if mv.shard = shard then mv.acked <- true)
           m.moves;
         maybe_commit ctx m
       | _ -> () (* late ack of a committed migration *))
    | Events.Retry_handoff { shard; version } ->
      (match m.next with
       | Some next when version = next.Ring.version ->
         (match
            List.find_opt
              (fun mv -> mv.shard = shard && not mv.acked)
              m.moves
          with
          | Some mv -> start_handoff ctx m next mv
          | None -> ())
       | _ -> ())
    | Events.Shutdown -> R.halt ctx
    | _ -> ())
