(* Additional core coverage: timers, coalescing with custom equality,
   engine configuration corners, id/error formatting, and cross-seed
   determinism properties. *)

module R = Psharp.Runtime
module E = Psharp.Engine
module Event = Psharp.Event
module Error = Psharp.Error
module Trace = Psharp.Trace

type Event.t += Tick_seen | Probe of int

let strategy ~seed =
  match (Psharp.Random_strategy.factory ~seed).Psharp.Strategy.fresh ~iteration:0 with
  | Some s -> s
  | None -> assert false

let config = { R.default_config with max_steps = 2_000 }

let execute ?(cfg = config) ?(monitors = []) ?(seed = 1L) body =
  R.execute cfg (strategy ~seed) ~monitors ~name:"Root" body

(* --- Timer --------------------------------------------------------------- *)

let test_timer_delivers_and_stops () =
  let ticks = ref 0 in
  let result =
    execute (fun ctx ->
        let me = R.self ctx in
        let timer = Psharp.Timer.create ctx ~target:me () in
        let rec await n =
          if n > 0 then begin
            match R.receive ctx with
            | Psharp.Timer.Timer_tick ->
              incr ticks;
              await (n - 1)
            | _ -> await n
          end
        in
        await 3;
        R.send ctx timer Psharp.Timer.Timer_stop
        (* root returns; timer halts on stop; execution drains *))
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check int) "three ticks" 3 !ticks

let test_timer_custom_tick () =
  let seen = ref false in
  let result =
    execute (fun ctx ->
        let timer =
          Psharp.Timer.create ctx ~target:(R.self ctx)
            ~tick:(fun () -> Tick_seen)
            ()
        in
        (match R.receive ctx with Tick_seen -> seen := true | _ -> ());
        R.send ctx timer Psharp.Timer.Timer_stop)
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check bool) "custom tick" true !seen

(* --- Coalescing with custom equality ------------------------------------- *)

let test_send_unless_pending_custom_same () =
  let got = ref [] in
  let result =
    execute (fun ctx ->
        let sink =
          R.create ctx ~name:"Sink" (fun sctx ->
              let rec loop () =
                match R.receive sctx with
                | Probe i ->
                  got := i :: !got;
                  loop ()
                | Event.Halt_event -> R.halt sctx
                | _ -> loop ()
              in
              loop ())
        in
        let same_payload i = function Probe j -> i = j | _ -> false in
        (* Same constructor, distinct payloads: default coalescing would
           drop the second; payload-equality keeps both. *)
        R.send_unless_pending ~same:(same_payload 1) ctx sink (Probe 1);
        R.send_unless_pending ~same:(same_payload 2) ctx sink (Probe 2);
        R.send_unless_pending ~same:(same_payload 1) ctx sink (Probe 1);
        R.send ctx sink Event.Halt_event)
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check (list int)) "payload-aware coalescing" [ 1; 2 ]
    (List.rev !got)

(* --- Engine corners ------------------------------------------------------- *)

let racy ctx =
  let flag = ref false in
  let referee =
    R.create ctx ~name:"Ref" (fun rctx ->
        ignore (R.receive rctx);
        R.assert_here rctx !flag "loser ran first")
  in
  ignore (R.create ctx ~name:"W1" (fun c -> flag := true; R.send c referee (Probe 0)));
  ignore (R.create ctx ~name:"W2" (fun c -> R.send c referee (Probe 1)))

let test_engine_ndc_none_without_bug () =
  let cfg = { E.default_config with max_executions = 5 } in
  let outcome = E.run cfg (fun _ctx -> ()) in
  Alcotest.(check (option int)) "no ndc" None (E.ndc outcome)

let test_engine_stops_at_budget () =
  let cfg = { E.default_config with max_executions = 7 } in
  match E.run cfg (fun _ctx -> ()) with
  | E.No_bug stats -> Alcotest.(check int) "exactly budget" 7 stats.E.executions
  | E.Bug_found _ -> Alcotest.fail "unexpected bug"

let test_pct_seed_determinism () =
  let cfg =
    {
      E.default_config with
      strategy = E.Pct { change_points = 2 };
      max_executions = 200;
      seed = 11L;
    }
  in
  let key = function
    | E.Bug_found (r, _) -> Trace.to_string r.Error.trace
    | E.No_bug _ -> "none"
  in
  Alcotest.(check string) "pct deterministic" (key (E.run cfg racy))
    (key (E.run cfg racy))

(* --- Formatting ----------------------------------------------------------- *)

let test_id_to_string () =
  let id = Psharp.Id.make ~index:3 ~name:"Node" in
  Alcotest.(check string) "render" "Node(3)" (Psharp.Id.to_string id);
  Alcotest.(check int) "index" 3 (Psharp.Id.index id);
  Alcotest.(check bool) "equal by index" true
    (Psharp.Id.equal id (Psharp.Id.make ~index:3 ~name:"Other"))

let test_error_kind_strings () =
  let cases =
    [
      Error.Safety_violation { monitor = "M"; message = "m" };
      Error.Liveness_violation { monitor = "M"; hot_since = 2; state = "Hot" };
      Error.Deadlock { blocked = [ "A(1)" ] };
      Error.Unhandled_event { machine = "A"; state = "S"; event = "E" };
      Error.Assertion_failure { machine = "A"; message = "m" };
      Error.Machine_exception { machine = "A"; exn = "Boom" };
      Error.Replay_divergence { step = 4; message = "m" };
    ]
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool) "nonempty rendering" true
        (String.length (Error.kind_to_string kind) > 0))
    cases

(* --- Cross-seed determinism property -------------------------------------- *)

let prop_engine_deterministic_per_seed =
  QCheck.Test.make ~name:"engine outcome is a function of the seed" ~count:25
    QCheck.int64 (fun seed ->
      let cfg =
        { E.default_config with seed; max_executions = 50; max_steps = 200 }
      in
      let key = function
        | E.Bug_found (r, s) -> (Trace.to_string r.Error.trace, s.E.executions)
        | E.No_bug s -> ("none", s.E.executions)
      in
      key (E.run cfg racy) = key (E.run cfg racy))

let prop_replay_is_exact =
  QCheck.Test.make ~name:"replay reproduces trace exactly" ~count:25
    QCheck.int64 (fun seed ->
      let cfg =
        { E.default_config with seed; max_executions = 100; max_steps = 200 }
      in
      match E.run cfg racy with
      | E.No_bug _ -> true
      | E.Bug_found (report, _) ->
        let result = E.replay cfg report.Error.trace racy in
        result.R.bug <> None
        && Trace.equal result.R.choices report.Error.trace)

let suite =
  [
    Alcotest.test_case "timer delivers and stops" `Quick
      test_timer_delivers_and_stops;
    Alcotest.test_case "timer custom tick" `Quick test_timer_custom_tick;
    Alcotest.test_case "coalescing with custom equality" `Quick
      test_send_unless_pending_custom_same;
    Alcotest.test_case "ndc none without bug" `Quick
      test_engine_ndc_none_without_bug;
    Alcotest.test_case "budget respected" `Quick test_engine_stops_at_budget;
    Alcotest.test_case "pct seed determinism" `Quick test_pct_seed_determinism;
    Alcotest.test_case "id formatting" `Quick test_id_to_string;
    Alcotest.test_case "error kind strings" `Quick test_error_kind_strings;
    QCheck_alcotest.to_alcotest prop_engine_deterministic_per_seed;
    QCheck_alcotest.to_alcotest prop_replay_is_exact;
  ]

let test_time_budget_stops_search () =
  (* A harness with no bug and a tiny time budget: the engine must stop
     well before the execution budget. *)
  let cfg =
    {
      E.default_config with
      max_executions = max_int - 1;
      max_seconds = Some 0.2;
      max_steps = 200;
    }
  in
  let started = Unix.gettimeofday () in
  match E.run cfg (fun _ctx -> ()) with
  | E.No_bug stats ->
    Alcotest.(check bool) "stopped on time" true
      (Unix.gettimeofday () -. started < 5.0);
    Alcotest.(check bool) "ran some executions" true (stats.E.executions > 0)
  | E.Bug_found _ -> Alcotest.fail "unexpected bug"

let suite =
  suite
  @ [
      Alcotest.test_case "time budget stops search" `Quick
        test_time_budget_stops_search;
    ]
