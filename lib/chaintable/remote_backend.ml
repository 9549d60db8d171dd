module B = Backend
module R = Psharp.Runtime

type stash = {
  mutable next_pending : Linearize.pending option;
  mutable rt_outcome : Table_types.outcome option;
  mutable last_at : int;
  mutable next_seq : int;
  mutable next_token : int;
}

let create_stash () =
  {
    next_pending = None;
    rt_outcome = None;
    last_at = 0;
    next_seq = 0;
    next_token = 0;
  }

(* Virtual-time units an RPC waits before retrying. Deliberately below the
   fault substrate's default [max_delay] (3): a delayed hop can outlive the
   timeout, so the timeout-retry race is reachable. *)
let rpc_timeout = 2

let take_rt_outcome stash =
  let o = stash.rt_outcome in
  stash.rt_outcome <- None;
  o

let ops ?(bugs = Bug_flags.none) ctx ~tables ~stash : B.ops =
  (* The backend RPC hop goes through [send_faulty]: with message faults
     armed the request can be duplicated or delayed in flight (a plain send
     otherwise). The sequence number lets the Tables machine discard a
     duplicate, and the reply filter ignores any response that is not for
     the outstanding call. *)
  let send_request seq table call lin =
    R.send_faulty ctx tables
      (Events.Backend_request { reply_to = R.self ctx; seq; table; call; lin })
  in
  let finish = function
    | Events.Backend_response { result; rt_outcome; at; _ } ->
      stash.last_at <- at;
      (match rt_outcome with
       | Some o -> stash.rt_outcome <- Some o
       | None -> ());
      result
    | _ -> assert false
  in
  (* Under virtual time an RPC hop has latency, so the call carries a
     timeout: each attempt arms a timed self-delivery ([Rpc_timeout],
     tokenized so a stale firing is ignored) and retransmits when it beats
     the response. The fixed protocol retries with the {e same} sequence
     number — the server's dedup absorbs a retry of a call it already
     executed; [bugs.retry_fresh_seq] re-introduces the classic defect of
     retrying as a brand-new request, which double-executes an
     already-linearized call (ChaintableRetryFreshSeq). *)
  let rec timed_request seq table call lin =
    send_request seq table call lin;
    let token = stash.next_token in
    stash.next_token <- token + 1;
    R.send_after ctx (R.self ctx) (Events.Rpc_timeout { token })
      ~after:rpc_timeout;
    match
      R.receive_where ctx (function
        | Events.Backend_response { seq = s; _ } -> s = seq
        | Events.Rpc_timeout { token = t } -> t = token
        | _ -> false)
    with
    | Events.Rpc_timeout _ ->
      let seq' =
        if bugs.Bug_flags.retry_fresh_seq then begin
          let s = stash.next_seq in
          stash.next_seq <- s + 1;
          s
        end
        else seq
      in
      if R.logging ctx then
        R.log ctx
          (Printf.sprintf "rpc timeout seq=%d; retrying as seq=%d" seq seq');
      timed_request seq' table call lin
    | response -> finish response
  in
  let request table call lin =
    let seq = stash.next_seq in
    stash.next_seq <- seq + 1;
    if R.clock_on ctx then timed_request seq table call lin
    else begin
      send_request seq table call lin;
      finish
        (R.receive_where ctx (function
           | Events.Backend_response { seq = s; _ } -> s = seq
           | _ -> false))
    end
  in
  {
    B.begin_op =
      (fun () ->
        let pending = stash.next_pending in
        stash.next_pending <- None;
        R.send ctx tables
          (Events.Begin_op { reply_to = R.self ctx; pending });
        match
          R.receive_where ctx (function
            | Events.Begin_reply _ -> true
            | _ -> false)
        with
        | Events.Begin_reply { phase } -> phase
        | _ -> assert false);
    end_op =
      (fun () -> R.send ctx tables (Events.End_op { service = R.self ctx }));
    execute =
      (fun ?lin table op ->
        match request table (Events.C_execute op) lin with
        | B.Exec_result r -> r
        | B.Batch_result _ | B.Row_result _ | B.Rows_result _ ->
          assert false);
    execute_batch =
      (fun ?lin table ops ->
        match request table (Events.C_batch ops) lin with
        | B.Batch_result r -> r
        | B.Exec_result _ | B.Row_result _ | B.Rows_result _ ->
          assert false);
    retrieve =
      (fun ?lin table key ->
        match request table (Events.C_retrieve key) lin with
        | B.Row_result r -> r
        | B.Exec_result _ | B.Batch_result _ | B.Rows_result _ ->
          assert false);
    query =
      (fun ?lin table filter ->
        match request table (Events.C_query filter) lin with
        | B.Rows_result r -> r
        | B.Exec_result _ | B.Batch_result _ | B.Row_result _ ->
          assert false);
    peek_after =
      (fun ?lin table after filter ->
        match request table (Events.C_peek_after (after, filter)) lin with
        | B.Row_result r -> r
        | B.Exec_result _ | B.Batch_result _ | B.Rows_result _ ->
          assert false);
    stream_phase =
      (fun () ->
        R.send ctx tables (Events.Phase_request { reply_to = R.self ctx });
        match
          R.receive_where ctx (function
            | Events.Phase_reply _ -> true
            | _ -> false)
        with
        | Events.Phase_reply { phase; at } ->
          stash.last_at <- at;
          phase
        | _ -> assert false);
  }
