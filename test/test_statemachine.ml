(* Declarative state-machine layer: dispatch, goto, entry/exit, defer,
   ignore, implicit halt, unhandled events. *)

module R = Psharp.Runtime
module Sm = Psharp.Statemachine
module Event = Psharp.Event
module Error = Psharp.Error

type Event.t += Go | Work of int | Noise | Finish

let strategy ~seed =
  match (Psharp.Random_strategy.factory ~seed).Psharp.Strategy.fresh ~iteration:0 with
  | Some s -> s
  | None -> assert false

let config = { R.default_config with max_steps = 1_000 }

let execute body =
  R.execute config (strategy ~seed:1L) ~monitors:[] ~name:"Root" body

type model = { mutable log : string list }

let record m s = m.log <- s :: m.log

let run_machine ctx states init m = Sm.run ctx ~machine:"TestSm" ~states ~init m

let test_goto_entry_exit () =
  let m = { log = [] } in
  let result =
    execute (fun ctx ->
        let sm =
          R.create ctx ~name:"Sm" (fun sctx ->
              let a =
                Sm.state "A"
                  ~entry:(fun _ m -> record m "enter A")
                  ~exit_:(fun _ m -> record m "exit A")
                  [
                    ("Go", fun _ _ _ -> Sm.Goto "B");
                  ]
              in
              let b =
                Sm.state "B"
                  ~entry:(fun _ m -> record m "enter B")
                  [ ("Finish", fun _ _ _ -> Sm.Halt_machine) ]
              in
              run_machine sctx [ a; b ] "A" m)
        in
        R.send ctx sm Go;
        R.send ctx sm Finish)
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check (list string)) "lifecycle order"
    [ "enter A"; "exit A"; "enter B" ] (List.rev m.log)

let test_defer_replayed_in_next_state () =
  let m = { log = [] } in
  let result =
    execute (fun ctx ->
        let sm =
          R.create ctx ~name:"Sm" (fun sctx ->
              let a =
                Sm.state "A" ~defer:[ "Work" ]
                  [ ("Go", fun _ _ _ -> Sm.Goto "B") ]
              in
              let b =
                Sm.state "B"
                  [
                    ( "Work",
                      fun _ m e ->
                        (match e with
                         | Work i -> record m (Printf.sprintf "work %d" i)
                         | _ -> ());
                        Sm.Stay );
                    ("Finish", fun _ _ _ -> Sm.Halt_machine);
                  ]
              in
              run_machine sctx [ a; b ] "A" m)
        in
        (* Work arrives while in A (deferred), then Go transitions to B,
           where the deferred Work must be replayed before Finish. *)
        R.send ctx sm (Work 1);
        R.send ctx sm (Work 2);
        R.send ctx sm Go;
        R.send ctx sm Finish)
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check (list string)) "deferred replayed in order"
    [ "work 1"; "work 2" ] (List.rev m.log)

let test_ignore_drops () =
  let m = { log = [] } in
  let result =
    execute (fun ctx ->
        let sm =
          R.create ctx ~name:"Sm" (fun sctx ->
              let a =
                Sm.state "A" ~ignore_:[ "Noise" ]
                  [ ("Finish", fun _ _ _ -> Sm.Halt_machine) ]
              in
              run_machine sctx [ a ] "A" m)
        in
        R.send ctx sm Noise;
        R.send ctx sm Noise;
        R.send ctx sm Finish)
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None)

let test_unhandled_event_bug () =
  let result =
    execute (fun ctx ->
        let sm =
          R.create ctx ~name:"Sm" (fun sctx ->
              let a = Sm.state "A" [] in
              run_machine sctx [ a ] "A" { log = [] })
        in
        R.send ctx sm Noise)
  in
  match result.R.bug with
  | Some (Error.Unhandled_event { state = "A"; _ }) -> ()
  | _ -> Alcotest.fail "expected unhandled-event bug"

let test_halt_event_implicit () =
  let result =
    execute (fun ctx ->
        let sm =
          R.create ctx ~name:"Sm" (fun sctx ->
              let a = Sm.state "A" [] in
              run_machine sctx [ a ] "A" { log = [] })
        in
        R.send ctx sm Event.Halt_event)
  in
  Alcotest.(check bool) "halt event halts gracefully" true (result.R.bug = None)

let test_undeclared_initial_state () =
  let result =
    execute (fun ctx ->
        ignore ctx;
        let a = Sm.state "A" [] in
        R.create ctx ~name:"Sm" (fun sctx ->
            run_machine sctx [ a ] "Nope" { log = [] })
        |> ignore)
  in
  match result.R.bug with
  | Some (Error.Machine_exception _) -> ()
  | _ -> Alcotest.fail "expected machine exception for undeclared state"

let test_transition_handler_receives_event () =
  let got = ref 0 in
  let result =
    execute (fun ctx ->
        let sm =
          R.create ctx ~name:"Sm" (fun sctx ->
              let a =
                Sm.state "A"
                  [
                    ( "Work",
                      fun _ _ e ->
                        (match e with Work i -> got := i | _ -> ());
                        Sm.Halt_machine );
                  ]
              in
              run_machine sctx [ a ] "A" { log = [] })
        in
        R.send ctx sm (Work 42))
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check int) "payload" 42 !got

let test_registry_counts () =
  Psharp.Registry.reset ();
  let result =
    execute (fun ctx ->
        let sm =
          R.create ctx ~name:"Sm" (fun sctx ->
              let a =
                Sm.state "A" [ ("Go", fun _ _ _ -> Sm.Goto "B") ]
              in
              let b = Sm.state "B" [ ("Finish", fun _ _ _ -> Sm.Halt_machine) ] in
              Sm.run sctx ~machine:"RegistryProbe" ~states:[ a; b ] ~init:"A"
                { log = [] })
        in
        R.send ctx sm Go;
        R.send ctx sm Finish)
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  let stats =
    List.find
      (fun s -> s.Psharp.Registry.machine = "RegistryProbe")
      (Psharp.Registry.machines ())
  in
  Alcotest.(check int) "states" 2 stats.Psharp.Registry.states;
  Alcotest.(check int) "handlers" 2 stats.Psharp.Registry.handlers;
  Alcotest.(check int) "observed transitions" 1
    (Psharp.Registry.transitions ~machine:"RegistryProbe")

(* Cached dispatch against [Statemachine_ref], the by-name dispatcher as
   first written. A case is a random stack of states (handler lists with
   repeated names, defer and ignore lists that overlap them, transitions
   of every kind, [Halt_event] handled, ignored or left to the implicit
   halt) and a random event stream over six names. Two pairs of the
   events come from constructors that share a bare name: [Noise] and
   [Other.Noise] (constant), [Work] and [Other.Work] (with a payload),
   which by-name dispatch treats alike. Each handler logs its call and
   picks its transition by the event's payload, so one (state,
   constructor) pair can take different transitions on different
   deliveries. Both dispatchers run the case as a root machine that
   feeds its handler the stream; their logs (handler calls, entry and
   exit actions, transitions, in stash-replay order) and outcomes
   (clean, halted, unhandled event, pop from the initial state) must
   match. *)
module Other = struct
  type Event.t += Noise | Work of int
end

module Ref = Statemachine_ref

let names = [| "Go"; "Work"; "Noise"; "Finish"; "Halt_event"; "Unit_event" |]

let events =
  [|
    (fun _ -> Go);
    (fun i -> Work i);
    (fun _ -> Noise);
    (fun _ -> Finish);
    (fun _ -> Event.Halt_event);
    (fun _ -> Event.Unit_event);
    (fun _ -> Other.Noise);
    (fun i -> Other.Work i);
  |]

let show_event = function
  | Go -> "Go"
  | Work i -> Printf.sprintf "Work %d" i
  | Noise -> "Noise"
  | Finish -> "Finish"
  | Event.Halt_event -> "Halt_event"
  | Event.Unit_event -> "Unit_event"
  | Other.Noise -> "Other.Noise"
  | Other.Work i -> Printf.sprintf "Other.Work %d" i
  | _ -> "?"

let payload = function Work i | Other.Work i -> i | _ -> 0

type tr = T_stay | T_goto of int | T_push of int | T_pop | T_halt | T_unhandled

type sspec = {
  handles : (int * tr list) list;  (* name index, transitions by payload *)
  defers : int list;
  ignores : int list;
}

type case = { specs : sspec list; stream : (int * int) list }

let show_tr = function
  | T_stay -> "stay"
  | T_goto s -> Printf.sprintf "goto S%d" s
  | T_push s -> Printf.sprintf "push S%d" s
  | T_pop -> "pop"
  | T_halt -> "halt"
  | T_unhandled -> "unhandled"

let show_case c =
  let names_of l = String.concat "," (List.map (fun i -> names.(i)) l) in
  let show_spec i sp =
    Printf.sprintf "S%d{%s; defer %s; ignore %s}" i
      (String.concat "; "
         (List.map
            (fun (n, trs) ->
              Printf.sprintf "%s -> [%s]" names.(n)
                (String.concat "," (List.map show_tr trs)))
            sp.handles))
      (names_of sp.defers) (names_of sp.ignores)
  in
  Printf.sprintf "%s\nstream: %s"
    (String.concat "\n" (List.mapi show_spec c.specs))
    (String.concat " "
       (List.map (fun (k, i) -> show_event (events.(k) i)) c.stream))

let gen_case =
  let open QCheck.Gen in
  frequency [ (1, return 1); (4, int_range 2 4) ] >>= fun n ->
  let gen_tr =
    frequency
      [
        (3, return T_stay);
        (3, map (fun s -> T_goto s) (int_bound (n - 1)));
        (3, map (fun s -> T_push s) (int_bound (n - 1)));
        (1, return T_pop);
        (1, return T_halt);
        (1, return T_unhandled);
      ]
  in
  (* Skewed towards three names so that states often disagree about the
     same event: one handles it, another defers or ignores it. *)
  let name =
    frequency
      [ (3, return 1); (3, return 2); (2, return 0); (1, int_bound 5) ]
  in
  let gen_spec =
    map3
      (fun handles defers ignores -> { handles; defers; ignores })
      (list_size (int_range 0 3) (pair name (list_size (int_range 1 3) gen_tr)))
      (list_size (int_range 0 3) name)
      (list_size (int_range 0 3) name)
  in
  map2
    (fun specs stream -> { specs; stream })
    (list_repeat n gen_spec)
    (list_size (int_range 0 60)
       (pair
          (frequency
             [ (3, int_range 1 2); (2, int_range 6 7); (2, return 0);
               (1, int_bound 7) ])
          (int_range 0 5)))

(* One state of a case, as either dispatcher's [state] takes it. *)
type decl = {
  d_name : string;
  d_log : string -> R.ctx -> model -> unit;
  d_defer : string list;
  d_ignore : string list;
  d_handlers : (string * model Sm.handler) list;
}

let start_cached ctx decls =
  Sm.handler ctx ~machine:"DispatchProp" ~init:"S0" { log = [] }
    ~states:
      (List.map
         (fun d ->
           Sm.state ~entry:(d.d_log "enter") ~exit_:(d.d_log "exit")
             ~defer:d.d_defer ~ignore_:d.d_ignore d.d_name d.d_handlers)
         decls)

let start_reference ctx decls =
  Ref.handler ctx ~machine:"DispatchProp" ~init:"S0" { log = [] }
    ~states:
      (List.map
         (fun d ->
           Ref.state ~entry:(d.d_log "enter") ~exit_:(d.d_log "exit")
             ~defer:d.d_defer ~ignore_:d.d_ignore d.d_name d.d_handlers)
         decls)

(* Run [c] through the handler [start] builds; the bug and the log. *)
let run_case c ~start =
  let handle s j trs : model Sm.handler =
   fun ctx _ e ->
    R.log ctx (Printf.sprintf "S%d.h%d %s" s j (show_event e));
    match List.nth trs (payload e mod List.length trs) with
    | T_stay -> Sm.Stay
    | T_goto t -> Sm.Goto (Printf.sprintf "S%d" t)
    | T_push t -> Sm.Push (Printf.sprintf "S%d" t)
    | T_pop -> Sm.Pop
    | T_halt -> Sm.Halt_machine
    | T_unhandled -> Sm.Unhandled
  in
  let decl s sp =
    let d_name = Printf.sprintf "S%d" s in
    {
      d_name;
      d_log = (fun what ctx _ -> R.log ctx (what ^ " " ^ d_name));
      d_defer = List.map (fun i -> names.(i)) sp.defers;
      d_ignore = List.map (fun i -> names.(i)) sp.ignores;
      d_handlers =
        List.mapi (fun j (n, trs) -> (names.(n), handle s j trs)) sp.handles;
    }
  in
  let result =
    R.execute
      { config with R.collect_log = true }
      (strategy ~seed:1L) ~monitors:[] ~name:"Root"
      (fun ctx ->
        let deliver = start ctx (List.mapi decl c.specs) in
        List.iter (fun (k, i) -> deliver (events.(k) i)) c.stream;
        R.log ctx "end of stream")
  in
  (result.R.bug, result.R.log)

(* 20,000 cases take well under a second. A subtle mutant, a deferral
   test that lets an ignoring state fall through, shows only when the
   event it strands in the stash is later handled: 5,000 cases caught it
   in about half the runs, 20,000 in every run. *)
let prop_cached_dispatch_matches_reference =
  QCheck.Test.make ~name:"cached dispatch matches the by-name reference"
    ~count:20000
    (QCheck.make ~print:show_case gen_case)
    (fun c ->
      let cached = run_case c ~start:start_cached in
      let reference = run_case c ~start:start_reference in
      cached = reference
      || QCheck.Test.fail_reportf "cached:\n%s\nreference:\n%s"
           (String.concat "\n" (snd cached))
           (String.concat "\n" (snd reference)))

let suite =
  [
    Alcotest.test_case "goto + entry/exit" `Quick test_goto_entry_exit;
    Alcotest.test_case "defer replayed in next state" `Quick
      test_defer_replayed_in_next_state;
    Alcotest.test_case "ignore drops events" `Quick test_ignore_drops;
    Alcotest.test_case "unhandled event is a bug" `Quick
      test_unhandled_event_bug;
    Alcotest.test_case "Halt_event halts implicitly" `Quick
      test_halt_event_implicit;
    Alcotest.test_case "undeclared initial state" `Quick
      test_undeclared_initial_state;
    Alcotest.test_case "handler receives payload" `Quick
      test_transition_handler_receives_event;
    Alcotest.test_case "registry counts" `Quick test_registry_counts;
    QCheck_alcotest.to_alcotest prop_cached_dispatch_matches_reference;
  ]
