(* Push/pop state transitions (P# semantics). *)

module R = Psharp.Runtime
module Sm = Psharp.Statemachine
module Event = Psharp.Event
module Error = Psharp.Error

type Event.t += Go_push | Go_pop | Shared of int | Only_base | Fin

let strategy ~seed =
  match (Psharp.Random_strategy.factory ~seed).Psharp.Strategy.fresh ~iteration:0 with
  | Some s -> s
  | None -> assert false

let execute body =
  R.execute { R.default_config with max_steps = 1_000 } (strategy ~seed:1L)
    ~monitors:[] ~name:"Root" body

type model = { mutable log : string list }

let record m s = m.log <- s :: m.log

let machine_with states init m ctx sctx =
  ignore ctx;
  Sm.run sctx ~machine:"PushPopSm" ~states ~init m

let base_states m =
  ignore m;
  let base =
    Sm.state "Base"
      ~entry:(fun _ m -> record m "enter base")
      [
        ("Go_push", fun _ _ _ -> Sm.Push "Overlay");
        ( "Only_base",
          fun _ m _ ->
            record m "base handled Only_base";
            Sm.Stay );
        ( "Shared",
          fun _ m _ ->
            record m "base handled Shared";
            Sm.Stay );
        ("Fin", fun _ _ _ -> Sm.Halt_machine);
      ]
  in
  let overlay =
    Sm.state "Overlay"
      ~entry:(fun _ m -> record m "enter overlay")
      ~exit_:(fun _ m -> record m "exit overlay")
      [
        ( "Shared",
          fun _ m _ ->
            record m "overlay handled Shared";
            Sm.Stay );
        ("Go_pop", fun _ _ _ -> Sm.Pop);
      ]
  in
  [ base; overlay ]

let test_push_inherits_lower_handlers () =
  let m = { log = [] } in
  let result =
    execute (fun ctx ->
        let sm =
          R.create ctx ~name:"Sm" (fun sctx ->
              machine_with (base_states m) "Base" m ctx sctx)
        in
        R.send ctx sm Go_push;
        (* Overlay handles Shared itself, but Only_base falls through to
           the base state below. *)
        R.send ctx sm (Shared 1);
        R.send ctx sm Only_base;
        R.send ctx sm Go_pop;
        R.send ctx sm (Shared 2);
        R.send ctx sm Fin)
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check (list string)) "push/pop event routing"
    [
      "enter base"; "enter overlay"; "overlay handled Shared";
      "base handled Only_base"; "exit overlay"; "base handled Shared";
    ]
    (List.rev m.log)

let test_pop_from_initial_is_bug () =
  let result =
    execute (fun ctx ->
        let sm =
          R.create ctx ~name:"Sm" (fun sctx ->
              let only =
                Sm.state "Only" [ ("Go_pop", fun _ _ _ -> Sm.Pop) ]
              in
              Sm.run sctx ~machine:"PopBug" ~states:[ only ] ~init:"Only"
                { log = [] })
        in
        R.send ctx sm Go_pop)
  in
  match result.R.bug with
  | Some (Error.Machine_exception _) -> ()
  | _ -> Alcotest.fail "expected pop-from-initial to be reported"

let test_unhandled_searches_whole_stack () =
  let result =
    execute (fun ctx ->
        let sm =
          R.create ctx ~name:"Sm" (fun sctx ->
              let base = Sm.state "Base" [ ("Go_push", fun _ _ _ -> Sm.Push "Top") ] in
              let top_ = Sm.state "Top" [] in
              Sm.run sctx ~machine:"StackBug" ~states:[ base; top_ ]
                ~init:"Base" { log = [] })
        in
        R.send ctx sm Go_push;
        R.send ctx sm (Shared 0))
  in
  match result.R.bug with
  | Some (Error.Unhandled_event { state = "Top"; _ }) -> ()
  | _ -> Alcotest.fail "expected unhandled event reported at the top state"

let suite =
  [
    Alcotest.test_case "push inherits lower handlers" `Quick
      test_push_inherits_lower_handlers;
    Alcotest.test_case "pop from initial is a bug" `Quick
      test_pop_from_initial_is_bug;
    Alcotest.test_case "unhandled searches whole stack" `Quick
      test_unhandled_searches_whole_stack;
  ]
