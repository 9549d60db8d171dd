module R = Psharp.Runtime

let machine ~tables ~bugs ~report_to ctx =
  Events.install_printer ();
  Psharp.Registry.register_machine ~machine:"Migrator"
    ~kind:Psharp.Registry.Machine ~states:1 ~handlers:2;
  let stash = Remote_backend.create_stash () in
  let backend = Remote_backend.ops ~bugs ctx ~tables ~stash in
  let advance target =
    R.send ctx tables
      (Events.Advance_request { reply_to = R.self ctx; target });
    match
      R.receive_where ctx (function Events.Advance_done -> true | _ -> false)
    with
    | Events.Advance_done ->
      (* Phase marker for the coverage maps: deliveries to the migrator now
         carry the migration phase as the receiver state. *)
      R.set_state_name ctx (Phase.to_string target);
      if R.logging ctx then
        R.log ctx (Printf.sprintf "advanced to %s" (Phase.to_string target))
    | _ -> assert false
  in
  Migrator.run ~bugs { Migrator.backend; advance };
  R.send ctx report_to Events.Participant_done;
  R.halt ctx
