module R = Psharp.Runtime

(* Harness-owned "disk": everything a storage node keeps across a
   crash/restart (Runtime.crash + [~persistent]). The KV store itself is
   durable — every applied operation lands here inside the handler, so a
   crash loses only the inbox and the stall queue, never acknowledged
   writes. *)
type disk = {
  mutable d_store : (int * (string * int) list) list;  (* shard -> kv *)
  mutable d_dedup : (int * ((string * int) * Model.res) list) list;
      (* shard -> (client, seq) -> cached reply; migrates with the shard
         so a retransmit that lands on the new owner is still absorbed *)
  mutable d_ring : Ring.t;
  mutable d_out : (int * int) list;  (* outbound handoffs: shard, version *)
  mutable d_installed : (int * int) list;  (* completed installs *)
}

let fresh_disk ring =
  { d_store = []; d_dedup = []; d_ring = ring; d_out = []; d_installed = [] }

let peek_shard disk shard =
  match List.assoc_opt shard disk.d_store with Some kv -> kv | None -> []

type m = {
  name : string;
  router : Psharp.Id.t;
  disk : disk;
  bugs : Bug_flags.t;
  mutable stalled : Psharp.Event.t list;  (* volatile; clients retransmit *)
}

let shard_kv m shard =
  match List.assoc_opt shard m.disk.d_store with Some kv -> kv | None -> []

let shard_dedup m shard =
  match List.assoc_opt shard m.disk.d_dedup with Some d -> d | None -> []

let set_shard m shard kv dedup =
  m.disk.d_store <- (shard, kv) :: List.remove_assoc shard m.disk.d_store;
  m.disk.d_dedup <- (shard, dedup) :: List.remove_assoc shard m.disk.d_dedup

let drop_shard m shard =
  m.disk.d_store <- List.remove_assoc shard m.disk.d_store;
  m.disk.d_dedup <- List.remove_assoc shard m.disk.d_dedup

let migrating_out m shard =
  List.exists (fun (s, _) -> s = shard) m.disk.d_out

(* Apply one client operation to its shard, durably, and cache the reply
   under (client, seq) so a retransmit never re-executes. *)
let serve ctx m ~client ~client_name ~seq ~op ~shard =
  let dedup = shard_dedup m shard in
  let res =
    match List.assoc_opt (client_name, seq) dedup with
    | Some res -> res
    | None ->
      let kv, res = Model.apply (shard_kv m shard) op in
      set_shard m shard kv (((client_name, seq), res) :: dedup);
      res
  in
  R.send_faulty ctx client (Events.Client_reply { seq; res })

let handle_client_req ctx m e =
  match e with
  | Events.Client_req { client; client_name; seq; op } ->
    let shard = Ring.shard_of_key m.disk.d_ring (Model.key_of op) in
    if m.bugs.Bug_flags.stale_serve && List.mem_assoc shard m.disk.d_store
    then
      (* the defect: "I have the data, so I own it" — bypasses both the
         migration stall and the ring ownership check, so the stale copy
         keeps absorbing traffic mid-rebalance *)
      serve ctx m ~client ~client_name ~seq ~op ~shard
    else if migrating_out m shard then
      (* correct protocol: the shard is in handoff — neither serve the
         outgoing copy nor redirect (no committed ring names the new
         owner yet); park the request until the release *)
      m.stalled <- m.stalled @ [ e ]
    else if Ring.primary m.disk.d_ring shard = m.name then
      serve ctx m ~client ~client_name ~seq ~op ~shard
    else
      R.send_faulty ctx client
        (Events.Wrong_owner { seq; ring = m.disk.d_ring })
  | _ -> ()

let reprocess_stalled ctx m =
  let parked = m.stalled in
  m.stalled <- [];
  List.iter (handle_client_req ctx m) parked

let machine ?(bugs = Bug_flags.none) ~name ~router ~disk ctx =
  Events.install_printer ();
  let m = { name; router; disk; bugs; stalled = [] } in
  R.set_state_name ctx "Serving";
  R.serve ctx (function
    | Events.Client_req _ as e -> handle_client_req ctx m e
    | Events.Handoff_request { shard; version; dest; ring } ->
      (* Only a migration to a future ring is live; a retry of an
         already-committed one arrives with version <= our ring. *)
      if version > m.disk.d_ring.Ring.version then begin
        if not (List.mem (shard, version) m.disk.d_out) then begin
          m.disk.d_out <- (shard, version) :: m.disk.d_out;
          R.set_state_name ctx "Migrating"
        end;
        let data = shard_kv m shard in
        let dedup =
          if m.bugs.Bug_flags.migrate_drops_dedup then []
          else shard_dedup m shard
        in
        if m.bugs.Bug_flags.release_before_ack then
          (* the defect: drop the shard as soon as the snapshot is on
             the wire — a crashed receiver plus a retried handoff then
             re-snapshots an empty shard *)
          drop_shard m shard;
        R.send_faulty ctx dest
          (Events.Shard_data { shard; version; ring; data; dedup })
      end
    | Events.Shard_data { shard; version; ring; data; dedup } ->
      (* Install once; a duplicate (handoff retry racing the ack) must
         not overwrite a copy we may already be serving writes on. *)
      if not (List.mem (shard, version) m.disk.d_installed) then begin
        set_shard m shard data dedup;
        m.disk.d_installed <- (shard, version) :: m.disk.d_installed;
        (* adopting the incoming ring here (durably) covers the corner
           where a later crash throws away the Ring_update broadcast *)
        if ring.Ring.version > m.disk.d_ring.Ring.version then
          m.disk.d_ring <- ring
      end;
      R.send_faulty ctx m.router (Events.Handoff_ack { shard; version })
    | Events.Release { shard; version; ring } ->
      if ring.Ring.version > m.disk.d_ring.Ring.version then
        m.disk.d_ring <- ring;
      m.disk.d_out <-
        List.filter (fun sv -> sv <> (shard, version)) m.disk.d_out;
      drop_shard m shard;
      if m.disk.d_out = [] then R.set_state_name ctx "Serving";
      (* parked requests re-route now that the committed ring names the
         new owner *)
      reprocess_stalled ctx m
    | Events.Ring_update { ring } ->
      if ring.Ring.version > m.disk.d_ring.Ring.version then begin
        m.disk.d_ring <- ring;
        (* a committed ring is an implicit release of any older handoff
           still marked outbound — the explicit Release may have died in
           a crashed inbox *)
        let stale, live =
          List.partition
            (fun (_, v) -> v <= ring.Ring.version)
            m.disk.d_out
        in
        List.iter (fun (s, _) -> drop_shard m s) stale;
        m.disk.d_out <- live;
        if m.disk.d_out = [] then R.set_state_name ctx "Serving";
        reprocess_stalled ctx m
      end
    | Events.Shutdown -> R.halt ctx
    | _ -> ())
