module M = Psharp.Monitor
module Int_set = Set.Make (Int)

let primary_name = "FabricSinglePrimary"
let liveness_name = "FabricClientLiveness"

let single_primary () =
  let primaries = ref Int_set.empty in
  M.make ~name:primary_name ~initial:"Watching"
    ~states:[ ("Watching", M.Neutral) ]
    (fun m e ->
      match e with
      | Events.M_became_primary rid ->
        primaries := Int_set.add rid !primaries;
        if Int_set.cardinal !primaries > 1 then
          M.assert_ m false
            (Printf.sprintf "two live primaries: [%s]"
               (String.concat ";"
                  (List.map string_of_int (Int_set.elements !primaries))))
      | Events.M_primary_down rid -> primaries := Int_set.remove rid !primaries
      | _ -> ())

let client_liveness () =
  let pending = ref Int_set.empty in
  M.make ~name:liveness_name ~initial:"Idle"
    ~states:[ ("Idle", M.Cold); ("AwaitingResponse", M.Hot) ]
    (fun m e ->
      let refresh () =
        if Int_set.is_empty !pending then M.goto m "Idle"
        else M.goto m "AwaitingResponse"
      in
      match e with
      | Events.M_request id ->
        pending := Int_set.add id !pending;
        refresh ()
      | Events.M_response id ->
        pending := Int_set.remove id !pending;
        refresh ()
      | _ -> ())

let all () = [ single_primary (); client_liveness () ]
