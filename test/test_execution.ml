(* The execution half of the unit suite; see suites.ml. *)
let () = Suites.run Suites.Execution "psharp-execution"
