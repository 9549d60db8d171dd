(* The search half of the unit suite; see suites.ml. *)
let () = Suites.run Suites.Search "psharp-search"
