module R = Psharp.Runtime

type Psharp.Event.t +=
  | Cs_start of { batch : int }
  | Cs_record of { batch : int; value : int }
  | Cs_end of { batch : int; count : int }
  | Cs_result of { batch : int; sum : int }
  | Cs_ctl of Psharp.Event.t  (** control-path envelope *)

(* Control relay: batch-control messages take an extra hop, so the
   scheduler can deliver data records ahead of their batch-open message. *)
let control_relay ~target ctx =
  Psharp.Registry.register_machine ~machine:"CScaleControlRelay"
    ~kind:Psharp.Registry.Machine ~states:1 ~handlers:1;
  R.serve ctx (function
    | Cs_ctl inner -> R.send ctx target inner
    | Psharp.Event.Halt_event -> R.halt ctx
    | _ -> ())

(* Aggregation stage: sums each batch's records, emits the sum on batch
   end. *)
let aggregator ~bugs ~sink ctx =
  Psharp.Registry.register_machine ~machine:"CScaleAggregator"
    ~kind:Psharp.Registry.Machine ~states:1 ~handlers:3;
  let current : (int * int ref * int ref) option ref = ref None in
  (* Records that arrived before their batch opened, and batch-end control
     messages awaiting the last record. *)
  let buffered : (int * int) list ref = ref [] in
  let pending_end : (int * int) list ref = ref [] in
  let add_record batch value =
    if bugs.Bug_flags.null_deref then begin
      (* The CScale defect: assume the batch is already open. If the data
         path overtook the control path, [current] is None and this is the
         NullReferenceException. *)
      let _, sum, received = Option.get !current in
      sum := !sum + value;
      incr received
    end
    else begin
      match !current with
      | Some (open_batch, sum, received) when open_batch = batch ->
        sum := !sum + value;
        incr received
      | Some _ | None -> buffered := (batch, value) :: !buffered
    end
  in
  let try_finish () =
    match !current with
    | Some (batch, sum, received)
      when (match List.assoc_opt batch !pending_end with
            | Some count -> count = !received
            | None -> false) ->
      pending_end := List.remove_assoc batch !pending_end;
      R.send ctx sink (Cs_result { batch; sum = !sum });
      current := None
    | Some _ | None -> ()
  in
  R.serve ctx (function
    | Cs_start { batch } ->
      current := Some (batch, ref 0, ref 0);
      (* Replay records buffered while the control message was in flight. *)
      let mine, rest = List.partition (fun (b, _) -> b = batch) !buffered in
      buffered := rest;
      List.iter (fun (b, v) -> add_record b v) (List.rev mine);
      try_finish ()
    | Cs_record { batch; value } ->
      add_record batch value;
      try_finish ()
    | Cs_end { batch; count } ->
      pending_end := (batch, count) :: !pending_end;
      try_finish ()
    | Psharp.Event.Halt_event -> R.halt ctx
    | _ -> ())

(* Transform stage: forwards records (doubling them) and routes batch
   control through the relay. *)
let transform ~relay ~aggregator_id ctx =
  Psharp.Registry.register_machine ~machine:"CScaleTransform"
    ~kind:Psharp.Registry.Machine ~states:1 ~handlers:3;
  R.serve ctx (function
    | Cs_start _ as e -> R.send ctx relay (Cs_ctl e)
    | Cs_end _ as e -> R.send ctx relay (Cs_ctl e)
    | Cs_record { batch; value } ->
      R.send ctx aggregator_id (Cs_record { batch; value = 2 * value })
    | Psharp.Event.Halt_event -> R.halt ctx
    | _ -> ())

let test ?(bugs = Bug_flags.none) ?(n_batches = 2) ?(batch_size = 2) () ctx =
  Psharp.Registry.register_machine ~machine:"CScaleSource"
    ~kind:Psharp.Registry.Machine ~states:1 ~handlers:1;
  let sink = R.self ctx in
  let agg = R.create ctx ~name:"Aggregator" (aggregator ~bugs ~sink) in
  let relay = R.create ctx ~name:"ControlRelay" (control_relay ~target:agg) in
  let stage1 =
    R.create ctx ~name:"Transform" (transform ~relay ~aggregator_id:agg)
  in
  (* Source: stream the batches. *)
  for batch = 1 to n_batches do
    R.send ctx stage1 (Cs_start { batch });
    for i = 1 to batch_size do
      R.send ctx stage1 (Cs_record { batch; value = i })
    done;
    R.send ctx stage1 (Cs_end { batch; count = batch_size })
  done;
  (* Sink: await one result per batch and check the sums. *)
  let expected_sum = batch_size * (batch_size + 1) in
  for _ = 1 to n_batches do
    match
      R.receive_where ctx (function Cs_result _ -> true | _ -> false)
    with
    | Cs_result { batch; sum } ->
      if sum <> expected_sum then
        R.assert_here ctx false
          (Printf.sprintf "batch %d aggregated to %d, expected %d" batch sum
             expected_sum)
    | _ -> assert false
  done;
  R.send ctx agg Psharp.Event.Halt_event;
  R.send ctx stage1 Psharp.Event.Halt_event;
  R.send ctx relay Psharp.Event.Halt_event
