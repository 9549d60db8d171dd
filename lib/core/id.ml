type t = { index : int; name : string }

let make ~index ~name = { index; name }

let index t = t.index
let name t = t.name

let equal a b = a.index = b.index
let compare a b = Int.compare a.index b.index
let hash t = t.index

let to_string t = Printf.sprintf "%s(%d)" t.name t.index
