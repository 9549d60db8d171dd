module T = Table_types
module B = Backend
module R = Psharp.Runtime

type model = {
  old_table : Reference_table.t;
  new_table : Reference_table.t;
  rt : Reference_table.t;
  mutable vclock : int;
  mutable phase : Phase.t;
  mutable in_flight : (Psharp.Id.t * Phase.t) list;
  pending : (int, Linearize.pending) Hashtbl.t;
  mutable queued_advance : (Psharp.Id.t * Phase.t) option;
  mutable deferred_begins : (Psharp.Id.t * Linearize.pending option) list;
  (* highest backend-request sequence number handled per client, so a
     request duplicated by the fault substrate is executed exactly once *)
  last_seq : (int, int) Hashtbl.t;
}

let table_of m = function
  | B.Old -> m.old_table
  | B.New -> m.new_table

let run_call m table call =
  match call with
  | Events.C_execute op ->
    B.Exec_result (Reference_table.execute ~at:m.vclock table op)
  | Events.C_batch ops ->
    B.Batch_result (Reference_table.execute_batch ~at:m.vclock table ops)
  | Events.C_retrieve key -> B.Row_result (Reference_table.retrieve table key)
  | Events.C_query filter -> B.Rows_result (Reference_table.query table filter)
  | Events.C_peek_after (after, filter) ->
    B.Row_result (Reference_table.peek_after table after filter)

let handle_backend_request ctx m ~reply_to ~seq ~table ~call ~lin =
  m.vclock <- m.vclock + 1;
  let result = run_call m (table_of m table) call in
  let rt_outcome =
    match lin with
    | Some pred when pred result -> begin
      match Hashtbl.find_opt m.pending (Psharp.Id.index reply_to) with
      | Some pending ->
        Hashtbl.remove m.pending (Psharp.Id.index reply_to);
        let outcome = Linearize.apply m.rt ~at:m.vclock pending in
        if R.logging ctx then
          R.log ctx
            (Printf.sprintf "linearized %s -> %s"
               (Linearize.pending_to_string pending)
               (T.outcome_to_string outcome));
        Some outcome
      | None ->
        R.assert_here ctx false
          (Printf.sprintf
             "double linearization: %s linearized a call with no pending \
              logical operation"
             (Psharp.Id.to_string reply_to));
        None
    end
    | Some _ | None -> None
  in
  let response =
    Events.Backend_response { seq; result; rt_outcome; at = m.vclock }
  in
  (* Under virtual time the response hop crosses the network too, so it is
     equally exposed to the fault substrate — a delayed response is what
     makes the client's RPC timeout fire after the call already executed
     (the ChaintableRetryFreshSeq race). Clock off keeps the pre-clock
     single-faulty-hop protocol byte-identical. *)
  if R.clock_on ctx then R.send_faulty ctx reply_to response
  else R.send ctx reply_to response

let register_begin ctx m (requester, pending) =
  m.in_flight <- (requester, m.phase) :: m.in_flight;
  (match pending with
   | Some p -> Hashtbl.replace m.pending (Psharp.Id.index requester) p
   | None -> ());
  R.send ctx requester (Events.Begin_reply { phase = m.phase })

let try_apply_advance ctx m =
  match m.queued_advance with
  | None -> ()
  | Some (requester, target) ->
    let drained =
      List.for_all (fun (_, q) -> Phase.compatible q target) m.in_flight
    in
    if drained then begin
      m.phase <- target;
      m.queued_advance <- None;
      if R.logging ctx then
        R.log ctx (Printf.sprintf "phase -> %s" (Phase.to_string target));
      R.send ctx requester Events.Advance_done;
      (* Release begins that were deferred behind the transition. *)
      let deferred = List.rev m.deferred_begins in
      m.deferred_begins <- [];
      List.iter (register_begin ctx m) deferred
    end

let handle_begin ctx m ~reply_to ~pending =
  let must_defer =
    match m.queued_advance with
    | Some (_, target) -> not (Phase.compatible m.phase target)
    | None -> false
  in
  if must_defer then
    (* Starting a new op at the current phase would extend the drain the
       queued transition is waiting on; hold it until the phase changes. *)
    m.deferred_begins <- (reply_to, pending) :: m.deferred_begins
  else register_begin ctx m (reply_to, pending)

let handle_end ctx m ~service =
  m.in_flight <-
    List.filter (fun (id, _) -> not (Psharp.Id.equal id service)) m.in_flight;
  (match Hashtbl.find_opt m.pending (Psharp.Id.index service) with
   | Some pending ->
     R.assert_here ctx false
       (Printf.sprintf
          "logical operation %s by %s completed without a linearization point"
          (Linearize.pending_to_string pending)
          (Psharp.Id.to_string service))
   | None -> ());
  try_apply_advance ctx m

let handle_advance ctx m ~reply_to ~target =
  R.assert_here ctx (m.queued_advance = None)
    "concurrent phase transitions requested";
  m.queued_advance <- Some (reply_to, target);
  try_apply_advance ctx m

let handle_validate ctx m ~reply_to ~started_at ~finished_at ~filter ~emissions =
  let verdict =
    Spec_check.check_stream ~rt:m.rt ~started_at ~finished_at ~filter
      ~emissions
  in
  R.send ctx reply_to (Events.Validate_reply { verdict })

let machine ?(bugs = Bug_flags.none) ~initial_rows ctx =
  Events.install_printer ();
  Psharp.Registry.register_machine ~machine:"Tables"
    ~kind:Psharp.Registry.Machine ~states:1 ~handlers:7;
  let m =
    {
      old_table = Reference_table.create ~first_etag:1 ~etag_step:2 ();
      new_table = Reference_table.create ~first_etag:2 ~etag_step:2 ();
      rt = Reference_table.create ();
      vclock = 0;
      phase = Phase.Use_old;
      in_flight = [];
      pending = Hashtbl.create 8;
      queued_advance = None;
      deferred_begins = [];
      last_seq = Hashtbl.create 8;
    }
  in
  List.iter
    (fun (key, props) ->
      match
        ( Reference_table.execute ~at:0 m.old_table (T.Insert { key; props }),
          Reference_table.execute ~at:0 m.rt (T.Insert { key; props }) )
      with
      | Ok _, Ok _ -> ()
      | _ -> R.assert_here ctx false "initial row seeding failed")
    initial_rows;
  R.serve ctx (function
    | Events.Backend_request { reply_to; seq; table; call; lin } ->
      let duplicate =
        (not bugs.Bug_flags.backend_no_dedup)
        &&
        match Hashtbl.find_opt m.last_seq (Psharp.Id.index reply_to) with
        | Some s -> seq <= s
        | None -> false
      in
      if duplicate then
        (* ChaintableDuplicateBackendRequest: without this dedup a request
           duplicated in flight executes twice — the second run of a
           linearized call finds no pending logical operation and trips
           the double-linearization assert. *)
        (if R.logging ctx then
           R.log ctx
             (Printf.sprintf "discarded duplicate backend request seq=%d"
                seq))
      else begin
        Hashtbl.replace m.last_seq (Psharp.Id.index reply_to) seq;
        handle_backend_request ctx m ~reply_to ~seq ~table ~call ~lin
      end
    | Events.Begin_op { reply_to; pending } ->
      handle_begin ctx m ~reply_to ~pending
    | Events.End_op { service } -> handle_end ctx m ~service
    | Events.Phase_request { reply_to } ->
      R.send ctx reply_to
        (Events.Phase_reply { phase = m.phase; at = m.vclock })
    | Events.Advance_request { reply_to; target } ->
      handle_advance ctx m ~reply_to ~target
    | Events.Validate_stream
        { reply_to; started_at; finished_at; filter; emissions } ->
      handle_validate ctx m ~reply_to ~started_at ~finished_at ~filter
        ~emissions
    | Events.Tables_shutdown -> R.halt ctx
    | _ -> ())
