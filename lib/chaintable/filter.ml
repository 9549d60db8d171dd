let compare_with cmp (a : string) (b : string) =
  let c = String.compare a b in
  match (cmp : Filter0.cmp) with
  | Eq -> c = 0
  | Ne -> c <> 0
  | Lt -> c < 0
  | Le -> c <= 0
  | Gt -> c > 0
  | Ge -> c >= 0

let field_value (row : Table_types.row) = function
  | Filter0.Pk -> Some row.Table_types.key.pk
  | Filter0.Rk -> Some row.Table_types.key.rk
  | Filter0.Prop p -> List.assoc_opt p row.Table_types.props

let rec matches f row =
  match (f : Filter0.t) with
  | True -> true
  | Compare (field, cmp, v) ->
    (match field_value row field with
     | Some actual -> compare_with cmp actual v
     | None -> cmp = Filter0.Ne)
  | And (a, b) -> matches a row && matches b row
  | Or (a, b) -> matches a row || matches b row
  | Not a -> not (matches a row)

let of_pk pk = Filter0.Compare (Filter0.Pk, Filter0.Eq, pk)
