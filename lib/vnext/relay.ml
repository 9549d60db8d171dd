module R = Psharp.Runtime

let machine ~lossy ctx =
  Events.install_printer ();
  Psharp.Registry.register_machine ~machine:"NetworkEngine"
    ~kind:Psharp.Registry.Machine ~states:1 ~handlers:1;
  R.serve ctx (function
    | Events.Net_deliver { target; event } ->
      if (not lossy) || R.nondet ctx then R.send_faulty ctx target event
      else if R.logging ctx then
        R.log ctx (Printf.sprintf "dropped %s" (Psharp.Event.to_string event))
    | _ -> ())

let send ctx ~relay ~target e =
  R.send ctx relay (Events.Net_deliver { target; event = e })
