module T = Table_types

module Key_map = Map.Make (struct
  type t = T.key

  let compare = T.compare_key
end)

(* One key's versions, newest first. *)
type log = { mutable versions : (int * T.row option) list }

type t = {
  mutable rows : T.row Key_map.t;
  mutable clock : int;
  mutable next_etag : int;
  etag_step : int;
  mutable history : log Key_map.t;
}

(* Real table etags are globally unique opaque tokens; numbering tables in
   disjoint residue classes keeps distinct versions from ever comparing
   equal across tables (virtual etags mix both tables' etags). *)
let create ?(first_etag = 1) ?(etag_step = 1) () =
  {
    rows = Key_map.empty;
    clock = 0;
    next_etag = first_etag;
    etag_step;
    history = Key_map.empty;
  }

let now t = t.clock

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let fresh_etag t =
  let e = t.next_etag in
  t.next_etag <- e + t.etag_step;
  e

(* A key's log is added to [history] once; later versions go into it in
   place, so a commit allocates only the new version's cell. *)
let record_version t key version ~at =
  match Key_map.find key t.history with
  | log -> log.versions <- (at, version) :: log.versions
  | exception Not_found ->
    t.history <- Key_map.add key { versions = [ (at, version) ] } t.history

let retrieve t key = Key_map.find_opt key t.rows

(* Validate and compute the effect of one op against the current [rows],
   without assigning etags or mutating state. *)
let plan rows (op : T.op) :
  (T.props option (* new value; None = delete *), T.op_error) result =
  let current = Key_map.find_opt (T.op_key op) rows in
  match (op, current) with
  | T.Insert _, Some _ -> Error T.Conflict
  | T.Insert { props; _ }, None -> Ok (Some (T.norm_props props))
  | T.Replace _, None | T.Merge _, None -> Error T.Not_found
  | T.Replace { etag; props; _ }, Some row ->
    if row.T.etag = etag then Ok (Some (T.norm_props props))
    else Error T.Precondition_failed
  | T.Merge { etag; props; _ }, Some row ->
    if row.T.etag = etag then
      Ok (Some (T.merge_props ~base:row.T.props ~update:props))
    else Error T.Precondition_failed
  | T.Insert_or_replace { props; _ }, _ -> Ok (Some (T.norm_props props))
  | T.Insert_or_merge { props; _ }, None -> Ok (Some (T.norm_props props))
  | T.Insert_or_merge { props; _ }, Some row ->
    Ok (Some (T.merge_props ~base:row.T.props ~update:props))
  | T.Delete _, None -> Error T.Not_found
  | T.Delete { etag = None; _ }, Some _ -> Ok None
  | T.Delete { etag = Some etag; _ }, Some row ->
    if row.T.etag = etag then Ok None else Error T.Precondition_failed

let commit t key effect_ ~at =
  match effect_ with
  | Some props ->
    let row = { T.key; props; etag = fresh_etag t } in
    t.rows <- Key_map.add key row t.rows;
    record_version t key (Some row) ~at;
    { T.new_etag = Some row.T.etag }
  | None ->
    t.rows <- Key_map.remove key t.rows;
    record_version t key None ~at;
    { T.new_etag = None }

let execute ?at t op =
  match plan t.rows op with
  | Error e -> Error e
  | Ok effect_ ->
    let at = match at with Some at -> t.clock <- max t.clock at; at | None -> tick t in
    Ok (commit t (T.op_key op) effect_ ~at)

let validate_batch ops =
  let rec check index seen_keys pk = function
    | [] -> Ok ()
    | op :: rest ->
      let key = T.op_key op in
      if Option.is_some pk && Some key.T.pk <> pk then
        Error
          (T.Batch_rejected
             { index; error = "all batch operations must share a partition" })
      else if List.exists (fun k -> T.compare_key k key = 0) seen_keys then
        Error
          (T.Batch_rejected
             { index; error = "duplicate key in batch" })
      else check (index + 1) (key :: seen_keys) (Some key.T.pk) rest
  in
  match ops with
  | [] -> Error (T.Batch_rejected { index = 0; error = "empty batch" })
  | _ -> check 0 [] None ops

let execute_batch ?at t ops =
  match validate_batch ops with
  | Error e -> Error e
  | Ok () ->
    (* All-or-nothing: plan every op against the pre-state, then commit. *)
    let rec plan_all acc = function
      | [] -> Ok (List.rev acc)
      | op :: rest ->
        (match plan t.rows op with
         | Error e -> Error e
         | Ok eff -> plan_all ((T.op_key op, eff) :: acc) rest)
    in
    (match plan_all [] ops with
     | Error e -> Error e
     | Ok effects ->
       let at =
         match at with
         | Some at ->
           t.clock <- max t.clock at;
           at
         | None -> tick t
       in
       Ok (List.map (fun (key, eff) -> commit t key eff ~at) effects))

let query t filter =
  Key_map.fold
    (fun _key row acc -> if Filter.matches filter row then row :: acc else acc)
    t.rows []
  |> List.rev

let peek_after t after filter =
  let greater key =
    match after with
    | None -> true
    | Some a -> T.compare_key key a > 0
  in
  Key_map.fold
    (fun key row acc ->
      match acc with
      | Some _ -> acc
      | None ->
        if greater key && Filter.matches filter row then Some row else None)
    t.rows None

let rows t = List.map snd (Key_map.bindings t.rows)

let size t = Key_map.cardinal t.rows

let history t key =
  match Key_map.find_opt key t.history with
  | Some log -> List.rev log.versions
  | None -> []

let known_keys t = List.map fst (Key_map.bindings t.history)
