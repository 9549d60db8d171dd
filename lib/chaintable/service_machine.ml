module T = Table_types
module R = Psharp.Runtime
module Mt = Migrating_table

module Key_map = Map.Make (struct
  type t = T.key

  let compare = T.compare_key
end)

type state = {
  mt : Mt.t;
  stash : Remote_backend.stash;
  tables : Psharp.Id.t;
  name : string;
  history : (Linearize.pending, T.outcome) Psharp.History.t option;
      (** when present, every point operation is recorded as an
          invoke/response pair — the input of the generic
          linearizability oracle (see {!Lin_oracle}) *)
  check_outcomes : bool;
      (** legacy oracle: assert MT/RT outcome equivalence per operation
          at the linearization point *)
  mutable pairs : (int * int) list Key_map.t;
      (** observed (virtual etag, reference etag) pairs, newest first *)
}

(* History recording is draw-free, so arming it cannot perturb
   schedules; the [at] stamps are the reference table's logical clock
   (informational — precedence comes from recording order). *)
let record_invoke s pending =
  match s.history with
  | None -> None
  | Some h ->
    Some
      (Psharp.History.invoke h ~client:s.name
         ~at:s.stash.Remote_backend.last_at
         ~repr:(lazy (Linearize.pending_to_string pending))
         pending)

let record_respond s id outcome =
  match (s.history, id) with
  | Some h, Some id ->
    Psharp.History.respond h ~id ~at:s.stash.Remote_backend.last_at
      ~repr:(lazy (T.outcome_to_string outcome)) outcome
  | _ -> ()

let observed s key = Option.value (Key_map.find_opt key s.pairs) ~default:[]

let record_pair s key pair =
  let existing = observed s key in
  if match existing with p :: _ -> p <> pair | [] -> true then
    s.pairs <- Key_map.add key (pair :: existing) s.pairs

let record_rows s mt_rows rt_rows =
  List.iter
    (fun (mt_row : T.row) ->
      match
        List.find_opt
          (fun (rt_row : T.row) -> T.compare_key rt_row.T.key mt_row.T.key = 0)
          rt_rows
      with
      | Some rt_row -> record_pair s mt_row.T.key (mt_row.T.etag, rt_row.T.etag)
      | None -> ())
    mt_rows

(* Run one logical mutation through the MT and the RT, assert equivalent
   outcomes, update etag bookkeeping. *)
let run_mutation ctx s ~mt_op ~rt_op =
  let inv = record_invoke s (Linearize.Mutate rt_op) in
  s.stash.Remote_backend.next_pending <- Some (Linearize.Mutate rt_op);
  let mt_outcome = T.Mutated (Mt.mutate s.mt mt_op) in
  record_respond s inv mt_outcome;
  match Remote_backend.take_rt_outcome s.stash with
  | None ->
    R.assert_here ctx false
      (Printf.sprintf "%s never reached a linearization point"
         (T.op_to_string mt_op))
  | Some rt_outcome ->
    if s.check_outcomes && not (T.outcome_equivalent mt_outcome rt_outcome)
    then
      R.assert_here ctx false
        (Printf.sprintf
           "outcome divergence on %s: migrating table returned %s, reference \
            table returned %s"
           (T.op_to_string mt_op)
           (T.outcome_to_string mt_outcome)
           (T.outcome_to_string rt_outcome));
    (match (mt_outcome, rt_outcome) with
     | ( T.Mutated (Ok { T.new_etag = Some m }),
         T.Mutated (Ok { T.new_etag = Some r }) ) ->
       record_pair s (T.op_key mt_op) (m, r)
     | _ -> ())

let run_retrieve ctx s key =
  let inv = record_invoke s (Linearize.Read (T.Retrieve key)) in
  s.stash.Remote_backend.next_pending <- Some (Linearize.Read (T.Retrieve key));
  let mt_row = Mt.retrieve s.mt key in
  record_respond s inv (T.Row mt_row);
  match Remote_backend.take_rt_outcome s.stash with
  | None -> R.assert_here ctx false "retrieve never linearized"
  | Some rt_outcome ->
    if s.check_outcomes && not (T.outcome_equivalent (T.Row mt_row) rt_outcome)
    then
      R.assert_here ctx false
        (Printf.sprintf
           "retrieve divergence on %s: migrating table %s, reference table %s"
           (T.key_to_string key)
           (T.outcome_to_string (T.Row mt_row))
           (T.outcome_to_string rt_outcome));
    (match (mt_row, rt_outcome) with
     | Some m, T.Row (Some r) -> record_pair s key (m.T.etag, r.T.etag)
     | _ -> ())

let run_query ctx s filter =
  let inv = record_invoke s (Linearize.Read (T.Query_atomic filter)) in
  s.stash.Remote_backend.next_pending <-
    Some (Linearize.Read (T.Query_atomic filter));
  let mt_rows = Mt.query_atomic s.mt filter in
  record_respond s inv (T.Rows mt_rows);
  match Remote_backend.take_rt_outcome s.stash with
  | None -> R.assert_here ctx false "query never linearized"
  | Some rt_outcome ->
    if s.check_outcomes && not (T.outcome_equivalent (T.Rows mt_rows) rt_outcome)
    then
      R.assert_here ctx false
        (Printf.sprintf
           "query divergence on %s: migrating table %s, reference table %s"
           (Filter0.to_string filter)
           (T.outcome_to_string (T.Rows mt_rows))
           (T.outcome_to_string rt_outcome));
    (match rt_outcome with
     | T.Rows rt_rows -> record_rows s mt_rows rt_rows
     | _ -> ())

let run_stream ctx s filter =
  let stream = Mt.query_streamed s.mt filter in
  let started_at = s.stash.Remote_backend.last_at in
  let rec collect acc =
    match Mt.stream_next stream with
    | Some row ->
      collect ({ Spec_check.row; at = s.stash.Remote_backend.last_at } :: acc)
    | None -> List.rev acc
  in
  let emissions = collect [] in
  let finished_at = s.stash.Remote_backend.last_at in
  R.send ctx s.tables
    (Events.Validate_stream
       { reply_to = R.self ctx; started_at; finished_at; filter; emissions });
  match
    R.receive_where ctx (function Events.Validate_reply _ -> true | _ -> false)
  with
  | Events.Validate_reply { verdict = Ok () } -> ()
  | Events.Validate_reply { verdict = Error msg } ->
    R.assert_here ctx false
      (Printf.sprintf "streamed read violated the specification: %s" msg)
  | _ -> assert false

let pause ctx s n =
  (* A few harmless round trips so other machines can make progress. *)
  let backend = Remote_backend.ops ctx ~tables:s.tables ~stash:s.stash in
  for _ = 1 to n do
    ignore (backend.Backend.stream_phase ())
  done

(* --- Random workload ---------------------------------------------------- *)

let props_of value = [ ("v", value) ]

let random_op ctx s =
  let key = R.choose ctx Workload.key_space in
  let value = R.choose ctx Workload.value_space in
  let props = props_of value in
  let conditional make =
    match observed s key with
    | [] ->
      (* No etag ever observed: fall back to an upsert. *)
      ( T.Insert_or_replace { key; props },
        T.Insert_or_replace { key; props } )
    | pairs ->
      let idx = R.nondet_int ctx (min 3 (List.length pairs)) in
      let m_etag, r_etag = List.nth pairs idx in
      (make m_etag, make r_etag)
  in
  match R.nondet_int ctx 9 with
  | 0 ->
    let mk _ = T.Insert { key; props } in
    Some (mk 0, mk 0)
  | 1 ->
    let mt, rt = conditional (fun etag -> T.Replace { key; etag; props }) in
    Some (mt, rt)
  | 2 ->
    let mt, rt = conditional (fun etag -> T.Merge { key; etag; props }) in
    Some (mt, rt)
  | 3 -> Some (T.Insert_or_replace { key; props }, T.Insert_or_replace { key; props })
  | 4 -> Some (T.Insert_or_merge { key; props }, T.Insert_or_merge { key; props })
  | 5 ->
    let mt, rt =
      conditional (fun etag -> T.Delete { key; etag = Some etag })
    in
    Some (mt, rt)
  | 6 -> Some (T.Delete { key; etag = None }, T.Delete { key; etag = None })
  | _ -> None (* handled by caller: reads *)

let run_random ctx s n_ops =
  for _ = 1 to n_ops do
    match random_op ctx s with
    | Some (mt_op, rt_op) -> run_mutation ctx s ~mt_op ~rt_op
    | None -> begin
      match R.nondet_int ctx 3 with
      | 0 -> run_retrieve ctx s (R.choose ctx Workload.key_space)
      | 1 -> run_query ctx s (R.choose ctx Workload.filter_pool)
      | _ -> run_stream ctx s (R.choose ctx Workload.filter_pool)
    end
  done

(* --- Scripted workload -------------------------------------------------- *)

let run_step ctx s (step : Workload.step) =
  match step with
  | Workload.S_insert (key, value) ->
    let op etag = ignore etag; T.Insert { key; props = props_of value } in
    run_mutation ctx s ~mt_op:(op 0) ~rt_op:(op 0)
  | Workload.S_upsert (key, value) ->
    let op = T.Insert_or_replace { key; props = props_of value } in
    run_mutation ctx s ~mt_op:op ~rt_op:op
  | Workload.S_replace_current (key, value) -> begin
    match observed s key with
    | (m, r) :: _ ->
      run_mutation ctx s
        ~mt_op:(T.Replace { key; etag = m; props = props_of value })
        ~rt_op:(T.Replace { key; etag = r; props = props_of value })
    | [] -> run_retrieve ctx s key
  end
  | Workload.S_delete_uncond key ->
    let op = T.Delete { key; etag = None } in
    run_mutation ctx s ~mt_op:op ~rt_op:op
  | Workload.S_delete_current key -> begin
    match observed s key with
    | (m, r) :: _ ->
      run_mutation ctx s
        ~mt_op:(T.Delete { key; etag = Some m })
        ~rt_op:(T.Delete { key; etag = Some r })
    | [] -> run_retrieve ctx s key
  end
  | Workload.S_delete_stale key -> begin
    match List.rev (observed s key) with
    | (m, r) :: _ ->
      run_mutation ctx s
        ~mt_op:(T.Delete { key; etag = Some m })
        ~rt_op:(T.Delete { key; etag = Some r })
    | [] -> run_retrieve ctx s key
  end
  | Workload.S_retrieve key -> run_retrieve ctx s key
  | Workload.S_query filter -> run_query ctx s filter
  | Workload.S_stream filter -> run_stream ctx s filter
  | Workload.S_pause n -> pause ctx s n

(* --- Entry point -------------------------------------------------------- *)

let machine ?history ?(check_outcomes = true) ~tables ~bugs ~workload ~name
    ~report_to ctx =
  Events.install_printer ();
  Psharp.Registry.register_machine ~machine:"Service"
    ~kind:Psharp.Registry.Machine ~states:1 ~handlers:3;
  let stash = Remote_backend.create_stash () in
  let backend = Remote_backend.ops ~bugs ctx ~tables ~stash in
  let s =
    {
      mt = Mt.create ~bugs backend;
      stash;
      tables;
      name;
      history;
      check_outcomes;
      pairs = Key_map.empty;
    }
  in
  (match workload with
   | Workload.Random_ops { n_ops } -> run_random ctx s n_ops
   | Workload.Scripted steps -> List.iter (run_step ctx s) steps);
  R.send ctx report_to Events.Participant_done;
  R.halt ctx
