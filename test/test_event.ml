(* Event naming and printer registration. *)

module Event = Psharp.Event

type Event.t += Sample_event of int | Other_event

let test_name_strips_path () =
  Alcotest.(check string) "bare constructor name" "Sample_event"
    (Event.name (Sample_event 3));
  Alcotest.(check string) "builtin" "Halt_event" (Event.name Event.Halt_event)

let test_default_to_string () =
  Alcotest.(check string) "falls back to name" "Other_event"
    (Event.to_string Other_event)

let test_registered_printer_wins () =
  Event.register_printer (function
    | Sample_event i -> Some (Printf.sprintf "Sample(%d)" i)
    | _ -> None);
  Alcotest.(check string) "printer used" "Sample(7)"
    (Event.to_string (Sample_event 7));
  Alcotest.(check string) "other unaffected" "Other_event"
    (Event.to_string Other_event)

(* --- the memoized [Event.name] against the uncached strip --------------- *)

let reference_name e =
  let full =
    Obj.Extension_constructor.name (Obj.Extension_constructor.of_val e)
  in
  match String.rindex_opt full '.' with
  | None -> full
  | Some i -> String.sub full (i + 1) (String.length full - i - 1)

(* One sample value per constructor that crosses any catalog harness: a
   printer that renders nothing records every event the runtime logs
   (each send, dequeue, fault and monitor notification is rendered with
   logging on). *)
let recording = Atomic.make false
let samples : (int, Event.t) Hashtbl.t = Hashtbl.create 64

let record_samples () =
  Event.register_printer (fun e ->
      if Atomic.get recording then
        Hashtbl.replace samples
          (Obj.Extension_constructor.id (Obj.Extension_constructor.of_val e))
          e;
      None);
  Atomic.set recording true;
  let module Cat = Catalog.Bug_catalog in
  List.iter
    (fun (e : Cat.entry) ->
      List.iter
        (fun harness ->
          let cfg =
            {
              Psharp.Runtime.default_config with
              Psharp.Runtime.max_steps = min e.Cat.max_steps 2_000;
              collect_log = true;
              faults = e.Cat.faults;
              clock = e.Cat.clock;
            }
          in
          for iteration = 0 to 2 do
            match
              (Psharp.Random_strategy.factory ~seed:5L).Psharp.Strategy.fresh
                ~iteration
            with
            | Some s ->
              ignore
                (Psharp.Runtime.execute cfg s ~monitors:(e.Cat.monitors ())
                   ~name:"Harness" harness)
            | None -> ()
          done)
        [ e.Cat.harness; e.Cat.fixed_harness ])
    Cat.all;
  Atomic.set recording false;
  Hashtbl.fold (fun _ e acc -> e :: acc) samples []

(* Constructors made at run time, one per call: enough of them that their
   ids collide in the memo's direct-mapped front array. *)
let fresh_constructor () =
  let module M = struct
    type Event.t += Fresh_event
  end in
  M.Fresh_event

let names_agree events =
  List.for_all
    (fun e ->
      let n = Event.name e in
      String.equal n (reference_name e) && Event.name e == n)
    events

let test_memoized_name_matches_strip () =
  let harness_events = record_samples () in
  Alcotest.(check bool) "harness events recorded" true
    (List.length harness_events >= 20);
  let events =
    harness_events
    @ [ Event.Halt_event; Event.Unit_event; Sample_event 1; Other_event ]
    @ List.init 600 (fun _ -> fresh_constructor ())
  in
  Alcotest.(check bool) "same name as the uncached strip" true
    (names_agree events && names_agree (List.rev events));
  (* each new domain starts from an empty memo and fills it concurrently *)
  let workers =
    List.init 2 (fun i ->
        Domain.spawn (fun () ->
            let order = if i = 0 then events else List.rev events in
            List.for_all (fun _ -> names_agree order) [ 1; 2; 3 ]))
  in
  Alcotest.(check (list bool)) "same names under 2 worker domains"
    [ true; true ] (List.map Domain.join workers)

(* --- constructor ids read off the constructor block ---------------------- *)

(* Same bare names as this file's constructors, declared by another module. *)
module Other = struct
  type Event.t += Sample_event of int | Other_event
end

let test_constructor_id_matches_of_val () =
  let events =
    [
      Sample_event 1; Sample_event 2; Other_event; Other.Sample_event 1;
      Other.Other_event; Event.Halt_event; Event.Unit_event;
    ]
  in
  List.iter
    (fun e ->
      Alcotest.(check int) "constructor_id = of_val's id"
        Obj.Extension_constructor.(id (of_val e))
        (Event.constructor_id e);
      Alcotest.(check string) "name unchanged" (reference_name e)
        (Event.name e))
    events;
  Alcotest.(check bool) "same bare name, other module: distinct ids" true
    (Event.constructor_id Other_event
     <> Event.constructor_id Other.Other_event
    && Event.constructor_id (Sample_event 1)
       <> Event.constructor_id (Other.Sample_event 1));
  Alcotest.(check int) "payloads aside" (Event.constructor_id (Sample_event 1))
    (Event.constructor_id (Sample_event 2))

let suite =
  [
    Alcotest.test_case "name strips module path" `Quick test_name_strips_path;
    Alcotest.test_case "default to_string" `Quick test_default_to_string;
    Alcotest.test_case "registered printer wins" `Quick
      test_registered_printer_wins;
    Alcotest.test_case "memoized name = uncached strip, 2 domains" `Quick
      test_memoized_name_matches_strip;
    Alcotest.test_case "constructor_id = of_val's id, two modules" `Quick
      test_constructor_id_matches_of_val;
  ]
