type key = { pk : string; rk : string }

let key pk rk = { pk; rk }

let compare_key a b =
  match String.compare a.pk b.pk with
  | 0 -> String.compare a.rk b.rk
  | c -> c

let key_to_string k = Printf.sprintf "%s/%s" k.pk k.rk

type props = (string * string) list

let rec strictly_sorted = function
  | (a, _) :: ((b, _) :: _ as rest) ->
    String.compare a b < 0 && strictly_sorted rest
  | [ _ ] | [] -> true

(* Keep the first entry of each run of equal names. *)
let rec dedupe = function
  | ((a, _) as first) :: (b, _) :: rest when String.equal a b ->
    dedupe (first :: rest)
  | first :: rest -> first :: dedupe rest
  | [] -> []

let norm_props props =
  (* Last write wins per name, then sort by name: a stable sort of the
     reversed list puts each name's last write first among its entries.
     Stored rows are already normal, so they come back as they are. *)
  if strictly_sorted props then props
  else
    dedupe
      (List.stable_sort
         (fun (a, _) (b, _) -> String.compare a b)
         (List.rev props))

let merge_props ~base ~update = norm_props (base @ update)

type row = { key : key; props : props; etag : int }

let row_to_string r =
  Printf.sprintf "{%s etag=%d %s}" (key_to_string r.key) r.etag
    (String.concat ","
       (List.map (fun (n, v) -> Printf.sprintf "%s=%s" n v) r.props))

type op =
  | Insert of { key : key; props : props }
  | Replace of { key : key; etag : int; props : props }
  | Merge of { key : key; etag : int; props : props }
  | Insert_or_replace of { key : key; props : props }
  | Insert_or_merge of { key : key; props : props }
  | Delete of { key : key; etag : int option }

let op_key = function
  | Insert { key; _ }
  | Replace { key; _ }
  | Merge { key; _ }
  | Insert_or_replace { key; _ }
  | Insert_or_merge { key; _ }
  | Delete { key; _ } -> key

let op_to_string = function
  | Insert { key; _ } -> Printf.sprintf "Insert(%s)" (key_to_string key)
  | Replace { key; etag; _ } ->
    Printf.sprintf "Replace(%s, etag=%d)" (key_to_string key) etag
  | Merge { key; etag; _ } ->
    Printf.sprintf "Merge(%s, etag=%d)" (key_to_string key) etag
  | Insert_or_replace { key; _ } ->
    Printf.sprintf "InsertOrReplace(%s)" (key_to_string key)
  | Insert_or_merge { key; _ } ->
    Printf.sprintf "InsertOrMerge(%s)" (key_to_string key)
  | Delete { key; etag } ->
    Printf.sprintf "Delete(%s, etag=%s)" (key_to_string key)
      (match etag with None -> "*" | Some e -> string_of_int e)

type op_error =
  | Conflict
  | Not_found
  | Precondition_failed
  | Batch_rejected of { index : int; error : string }

let op_error_to_string = function
  | Conflict -> "Conflict"
  | Not_found -> "NotFound"
  | Precondition_failed -> "PreconditionFailed"
  | Batch_rejected { index; error } ->
    Printf.sprintf "BatchRejected(op %d: %s)" index error

type op_result = { new_etag : int option }

type read =
  | Retrieve of key
  | Query_atomic of Filter0.t

type outcome =
  | Mutated of (op_result, op_error) result
  | Row of row option
  | Rows of row list

let outcome_to_string = function
  | Mutated (Ok { new_etag }) ->
    Printf.sprintf "Ok(etag=%s)"
      (match new_etag with None -> "-" | Some e -> string_of_int e)
  | Mutated (Error e) -> Printf.sprintf "Err(%s)" (op_error_to_string e)
  | Row None -> "Row(none)"
  | Row (Some r) -> Printf.sprintf "Row(%s)" (row_to_string r)
  | Rows rs ->
    Printf.sprintf "Rows[%s]" (String.concat "; " (List.map row_to_string rs))

let row_equivalent a b =
  compare_key a.key b.key = 0 && norm_props a.props = norm_props b.props

let outcome_equivalent a b =
  match (a, b) with
  | Mutated (Ok _), Mutated (Ok _) -> true
  | Mutated (Error x), Mutated (Error y) -> x = y
  | Row None, Row None -> true
  | Row (Some x), Row (Some y) -> row_equivalent x y
  | Rows xs, Rows ys ->
    List.length xs = List.length ys && List.for_all2 row_equivalent xs ys
  | _ -> false
