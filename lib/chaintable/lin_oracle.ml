module T = Table_types
module Key_map = Reference_table.Key_map

type state = { rows : T.row Key_map.t; next_etag : int }

(* The reference table seeds initial rows as plain inserts with etags
   1, 2, ... before any client runs (Tables_machine); the model starts
   from the same state so recorded conditional operations — which carry
   concrete reference-table etags — evaluate identically. *)
let init_state initial_rows =
  List.fold_left
    (fun s (key, props) ->
      match Reference_table.plan s.rows (T.Insert { key; props }) with
      | Ok (Some props) ->
        {
          rows = Key_map.add key { T.key; props; etag = s.next_etag } s.rows;
          next_etag = s.next_etag + 1;
        }
      | Ok None | Error _ ->
        invalid_arg "Lin_oracle: initial rows must insert cleanly")
    { rows = Key_map.empty; next_etag = 1 }
    initial_rows

let apply s op =
  match op with
  | Linearize.Mutate op -> begin
    match Reference_table.plan s.rows op with
    | Error e -> (s, T.Mutated (Error e))
    | Ok (Some props) ->
      let key = T.op_key op in
      let row = { T.key; props; etag = s.next_etag } in
      ( { rows = Key_map.add key row s.rows; next_etag = s.next_etag + 1 },
        T.Mutated (Ok { T.new_etag = Some row.T.etag }) )
    | Ok None ->
      ( { s with rows = Key_map.remove (T.op_key op) s.rows },
        T.Mutated (Ok { T.new_etag = None }) )
  end
  | Linearize.Read (T.Retrieve key) -> (s, T.Row (Key_map.find_opt key s.rows))
  | Linearize.Read (T.Query_atomic f) ->
    let rows =
      Key_map.fold
        (fun _ row acc -> if Filter.matches f row then row :: acc else acc)
        s.rows []
      |> List.rev
    in
    (s, T.Rows rows)

(* Every row carries the etag it was written with, and [next_etag] only
   grows, so etags tell rows apart well enough to hash on them alone:
   the hash reads ints, never a key's strings. *)
let hash_state s =
  Key_map.fold (fun _ row h -> (h * 31) + row.T.etag) s.rows s.next_etag

let equal_row (a : T.row) (b : T.row) =
  a.T.etag = b.T.etag && a.T.props = b.T.props

let equal_state a b =
  a.next_etag = b.next_etag && Key_map.equal equal_row a.rows b.rows

let model initial_rows :
  (state, Linearize.pending, T.outcome) Psharp.Linearizability.model =
  {
    Psharp.Linearizability.init = init_state initial_rows;
    apply;
    (* [outcome_equivalent] compares the model's reference-style outcome
       against the recorded migrating-table outcome modulo etag values —
       the same equivalence the legacy per-operation assert used. *)
    match_res = T.outcome_equivalent;
    repr_res = T.outcome_to_string;
    hash_state;
    equal_state;
    (* queries span keys, so the history cannot be partitioned per key *)
    key_of = None;
  }
