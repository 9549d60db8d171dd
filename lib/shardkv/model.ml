type op = Get of string | Put of string * int | Add of string * int
type res = Got of int option | Put_ok | Added of int

let key_of = function Get k | Put (k, _) | Add (k, _) -> k

let op_repr = function
  | Get k -> Printf.sprintf "get %s" k
  | Put (k, v) -> Printf.sprintf "put %s %d" k v
  | Add (k, d) -> Printf.sprintf "add %s %d" k d

let res_repr = function
  | Got None -> "got -"
  | Got (Some v) -> Printf.sprintf "got %d" v
  | Put_ok -> "ok"
  | Added v -> Printf.sprintf "added %d" v

(* Sorted insertion keeps states canonical: equal stores are equal
   lists, so the checker's memo can compare them structurally. *)
let rec set st k v =
  match st with
  | [] -> [ (k, v) ]
  | (k', _) :: rest when k' = k -> (k, v) :: rest
  | (k', _) :: _ when k' > k -> (k, v) :: st
  | kv :: rest -> kv :: set rest k v

let apply st = function
  | Get k -> (st, Got (List.assoc_opt k st))
  | Put (k, v) -> (set st k v, Put_ok)
  | Add (k, d) ->
    let v = (match List.assoc_opt k st with Some v -> v | None -> 0) + d in
    (set st k v, Added v)

let lin_model =
  {
    Psharp.Linearizability.init = [];
    apply;
    match_res = ( = );
    repr_res = res_repr;
    hash_state = Hashtbl.hash;
    equal_state = ( = );
    key_of = Some key_of;
  }
