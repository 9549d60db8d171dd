(* The discrete-event virtual clock (ISSUE 6): unit behavior of [Clock],
   quiescence-driven advancement through the runtime ([send_after]), the
   timer's clocked drive mode restoring
   quiescence to timer-bearing harnesses (satellite 1), countdown-ordered
   release of delayed messages (satellite 2), the drain-at-bound grace
   before the liveness verdict (satellite 3), and the timeout/retry
   catalog bug only virtual time makes reachable. *)

module R = Psharp.Runtime
module E = Psharp.Engine
module Clock = Psharp.Clock
module Trace = Psharp.Trace
module Error = Psharp.Error
module Fault = Psharp.Fault
module Event = Psharp.Event
module Monitor = Psharp.Monitor
module Timer = Psharp.Timer
module Bug_catalog = Catalog.Bug_catalog

type Event.t += Ping of int | Heat | Cool | Spin

let random_strategy ~seed =
  match
    (Psharp.Random_strategy.factory ~seed).Psharp.Strategy.fresh ~iteration:0
  with
  | Some s -> s
  | None -> assert false

let replay_strategy = Psharp.Replay_strategy.make

let clock_cfg ?(max_time = 10_000) ?(max_steps = 2_000) () =
  { R.default_config with R.max_steps; clock = Some { Clock.max_time } }

(* --- Clock unit behavior -------------------------------------------------- *)

let test_clock_fire_order () =
  let ck = Clock.create () in
  Alcotest.(check int) "starts at zero" 0 (Clock.now ck);
  Alcotest.(check bool) "starts empty" true (Clock.is_empty ck);
  ignore (Clock.arm ck ~after:5 ~target:0 ~sender:(-1) ~stamp:(-1) (Ping 0));
  ignore (Clock.arm ck ~after:2 ~target:1 ~sender:(-1) ~stamp:(-1) (Ping 1));
  ignore (Clock.arm ck ~after:2 ~target:2 ~sender:(-1) ~stamp:(-1) (Ping 2));
  Alcotest.(check int) "three pending" 3 (Clock.pending ck);
  (match Clock.next_due ck with
   | Some 2 -> ()
   | _ -> Alcotest.fail "earliest deadline should be 2");
  let pop () =
    match Clock.pop_due ck ~horizon:10_000 with
    | Some e -> (e.Clock.at, e.Clock.target)
    | None -> Alcotest.fail "expected a due entry"
  in
  Alcotest.(check (pair int int))
    "same-instant entries fire in arming order" (2, 1) (pop ());
  Alcotest.(check (pair int int)) "tie-break by arming seq" (2, 2) (pop ());
  Alcotest.(check int) "time advanced to the fired instant" 2 (Clock.now ck);
  Alcotest.(check (pair int int)) "later deadline fires last" (5, 0) (pop ());
  Alcotest.(check int) "time at the last fire" 5 (Clock.now ck);
  Alcotest.(check bool) "drained" true (Clock.is_empty ck)

let test_clock_horizon_and_cancel () =
  let ck = Clock.create () in
  ignore (Clock.arm ck ~after:100 ~target:0 ~sender:(-1) ~stamp:(-1) (Ping 0));
  (match Clock.pop_due ck ~horizon:99 with
   | None -> ()
   | Some _ -> Alcotest.fail "entry beyond the horizon fired");
  Alcotest.(check int) "a horizon miss leaves time untouched" 0 (Clock.now ck);
  Alcotest.(check int) "and the entry pending" 1 (Clock.pending ck);
  Alcotest.check_raises "non-positive after rejected"
    (Invalid_argument "Clock.arm: after must be positive") (fun () ->
      ignore
        (Clock.arm ck ~after:0 ~target:0 ~sender:(-1) ~stamp:(-1) (Ping 0)));
  ignore (Clock.arm ck ~after:1 ~target:7 ~sender:(-1) ~stamp:(-1) (Ping 1));
  Clock.cancel_target ck 0;
  Alcotest.(check int) "crash cancels the target's entries" 1
    (Clock.pending ck);
  match Clock.pop_due ck ~horizon:10 with
  | Some e ->
    Alcotest.(check int) "survivor is the other target" 7 e.Clock.target
  | None -> Alcotest.fail "surviving entry did not fire"

(* --- Timed delivery through the runtime ----------------------------------- *)

let test_send_after_fires_in_deadline_order () =
  let order = ref [] in
  let result =
    R.execute (clock_cfg ()) (random_strategy ~seed:1L) ~monitors:[]
      ~name:"Root" (fun ctx ->
        let receiver =
          R.create ctx ~name:"Receiver" (fun rctx ->
              let rec loop k =
                if k > 0 then begin
                  (match R.receive rctx with
                   | Ping i -> order := (R.now rctx, i) :: !order
                   | _ -> ());
                  loop (k - 1)
                end
              in
              loop 2)
        in
        R.send_after ctx receiver (Ping 1) ~after:7;
        R.send_after ctx receiver (Ping 2) ~after:3)
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check (list (pair int int)))
    "the later-armed but earlier-due message lands first, at its instant"
    [ (3, 2); (7, 1) ]
    (List.rev !order);
  Alcotest.(check int) "execution ends at the last deadline" 7
    result.R.final_time

let test_clock_off_send_after_is_plain_send () =
  let got = ref [] in
  let cfg = { R.default_config with R.max_steps = 500 } in
  let result =
    R.execute cfg (random_strategy ~seed:1L) ~monitors:[] ~name:"Root"
      (fun ctx ->
        Alcotest.(check bool) "clock is off" false (R.clock_on ctx);
        Alcotest.(check int) "now falls back to the step count"
          (R.step_count ctx) (R.now ctx);
        let receiver =
          R.create ctx ~name:"Receiver" (fun rctx ->
              match R.receive rctx with
              | Ping i -> got := [ i ]
              | _ -> ())
        in
        R.send_after ctx receiver (Ping 9) ~after:50)
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check (list int)) "delivered immediately" [ 9 ] !got;
  Alcotest.(check int) "no virtual time" 0 result.R.final_time;
  (* the timed refinement must be draw-free when disabled: only schedule
     picks may appear in the trace *)
  List.iter
    (function
      | Trace.Schedule _ -> ()
      | _ ->
        Alcotest.fail "send_after drew from the strategy with the clock off")
    (Trace.to_list result.R.choices)

(* --- Satellite 1: timers and quiescence ----------------------------------- *)

(* A consumer that never halts plus a timer that is never stopped: under
   the legacy self-send drive this harness cannot quiesce and every
   execution burns the whole step bound. Under the clock the timer blocks
   between firings, so the execution ends at the simulation horizon after
   a handful of steps. *)
let ticking_harness ticks ctx =
  let consumer =
    R.create ctx ~name:"Consumer" (fun cctx ->
        let rec loop () =
          (match R.receive cctx with
           | Timer.Timer_tick -> incr ticks
           | _ -> ());
          loop ()
        in
        loop ())
  in
  ignore (Timer.create ctx ~target:consumer ~period:10 ())

let test_timer_quiesces_under_clock () =
  let ticks = ref 0 in
  let cfg = clock_cfg ~max_time:200 ~max_steps:5_000 () in
  let result =
    R.execute cfg (random_strategy ~seed:1L) ~monitors:[] ~name:"Root"
      (ticking_harness ticks)
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check bool) "horizon reached with the step bound barely touched"
    true
    (result.R.steps < 1_000);
  Alcotest.(check int) "last firing lands on the horizon" 200
    result.R.final_time;
  Alcotest.(check bool) "some ticks were delivered" true (!ticks > 0)

let test_timer_burns_bound_without_clock () =
  let ticks = ref 0 in
  let cfg = { R.default_config with R.max_steps = 500 } in
  let result =
    R.execute cfg (random_strategy ~seed:1L) ~monitors:[] ~name:"Root"
      (ticking_harness ticks)
  in
  Alcotest.(check bool) "no bug (bound cut, not deadlock)" true
    (result.R.bug = None);
  Alcotest.(check int) "the legacy drive runs to the step bound" 500
    result.R.steps

(* --- Satellite 2: countdown-ordered release at quiescence ------------------ *)

(* Two delay injections on the same link: the first held back 5
   deliveries, the second only 1. When quiescence releases them, the
   shorter-latency message must overtake — insertion order would replay
   [Ping 1] first. *)
let test_flush_releases_in_countdown_order () =
  let order = ref [] in
  let harness ctx =
    let receiver =
      R.create ctx ~name:"Receiver" (fun rctx ->
          let rec loop k =
            if k > 0 then begin
              (match R.receive rctx with
               | Ping i -> order := i :: !order
               | _ -> ());
              loop (k - 1)
            end
          in
          loop 2)
    in
    R.send_faulty ctx receiver (Ping 1);
    R.send_faulty ctx receiver (Ping 2)
  in
  let trace =
    Trace.of_list
      [
        Trace.Schedule 0 (* root runs to completion *);
        Trace.Bool true;
        Trace.Int 4 (* inject: hold Ping 1 back 5 deliveries *);
        Trace.Bool true;
        Trace.Int 0 (* inject: hold Ping 2 back 1 delivery *);
        Trace.Schedule 1 (* receiver starts, blocks; quiescence flushes *);
        Trace.Schedule 1 (* Ping 2 — countdown 1 — lands first *);
        Trace.Schedule 1 (* Ping 1 *);
      ]
  in
  let cfg =
    {
      R.default_config with
      R.max_steps = 100;
      faults = Fault.make ~budget:2 ~max_delay:5 [ Fault.Delay ];
    }
  in
  let result =
    R.execute cfg (replay_strategy trace) ~monitors:[] ~name:"Root" harness
  in
  (match result.R.bug with
   | None -> ()
   | Some k -> Alcotest.failf "replay tripped: %s" (Error.kind_to_string k));
  Alcotest.(check int) "both delays injected" 2 result.R.faults_injected;
  Alcotest.(check (list int)) "countdown order, not injection order" [ 2; 1 ]
    (List.rev !order)

(* --- Satellite 3: drain before the liveness verdict ------------------------ *)

let cooling_monitor () =
  Monitor.make ~name:"Cooling" ~initial:"Cold"
    ~states:[ ("Cold", Monitor.Cold); ("Hot", Monitor.Hot) ]
    (fun m e ->
      match e with
      | Heat -> Monitor.goto m "Hot"
      | Cool -> Monitor.goto m "Cold"
      | _ -> ())

(* The monitor runs hot from step 1 and the only thing that can cool it —
   [Cool], en route to the cooler machine — is delay-injected so it is
   still in flight when the step bound (10) cuts the execution. The
   spinner keeps the system from ever quiescing, so only the
   drain-at-bound flush can deliver it. *)
let drain_harness ctx =
  let spinner =
    R.create ctx ~name:"Spinner" (fun sctx ->
        let rec loop () =
          R.send sctx (R.self sctx) Spin;
          ignore (R.receive sctx);
          loop ()
        in
        loop ())
  in
  ignore spinner;
  let cooler =
    R.create ctx ~name:"Cooler" (fun cctx ->
        match R.receive cctx with
        | Cool -> R.notify cctx "Cooling" Cool
        | _ -> ())
  in
  R.notify ctx "Cooling" Heat;
  R.send_faulty ctx cooler Cool

let drain_cfg =
  {
    R.default_config with
    R.max_steps = 10;
    faults = Fault.make ~budget:1 ~max_delay:10 [ Fault.Delay ];
  }

let prefix_to_bound =
  [
    Trace.Schedule 0;
    Trace.Bool true;
    Trace.Int 9 (* hold Cool back 10 deliveries *);
    Trace.Schedule 2 (* cooler starts, blocks *);
  ]
  @ List.init 8 (fun _ -> Trace.Schedule 1)
(* spinner burns the remaining steps to the bound *)

let test_drain_at_bound_cools_monitor () =
  let trace =
    Trace.of_list
      (prefix_to_bound
      @ [ Trace.Schedule 2 ] (* drain: Cool lands, monitor cools *)
      @ List.init 63 (fun _ -> Trace.Schedule 1))
    (* spinner burns out the drain budget *)
  in
  let result =
    R.execute drain_cfg (replay_strategy trace)
      ~monitors:[ cooling_monitor () ] ~name:"Root" drain_harness
  in
  (match result.R.bug with
   | None -> ()
   | Some k ->
     Alcotest.failf "verdict despite the drain: %s" (Error.kind_to_string k));
  Alcotest.(check int) "drained to the extended bound" 74 result.R.steps

let test_still_hot_after_drain_is_a_violation () =
  (* Same execution, but the drained [Cool] is never scheduled: with the
     monitor genuinely hot through the drain, the verdict must stand. *)
  let trace =
    Trace.of_list (prefix_to_bound @ List.init 64 (fun _ -> Trace.Schedule 1))
  in
  let result =
    R.execute drain_cfg (replay_strategy trace)
      ~monitors:[ cooling_monitor () ] ~name:"Root" drain_harness
  in
  match result.R.bug with
  | Some (Error.Liveness_violation { monitor = "Cooling"; _ }) -> ()
  | Some k -> Alcotest.failf "wrong kind: %s" (Error.kind_to_string k)
  | None -> Alcotest.fail "hot-through-the-drain monitor not reported"

(* --- The timeout/retry catalog bug ----------------------------------------- *)

let retry_entry () = Bug_catalog.find "ChaintableRetryFreshSeq"

let retry_cfg entry ~executions =
  {
    E.default_config with
    E.seed = 1L;
    max_executions = executions;
    max_steps = entry.Bug_catalog.max_steps;
    faults = entry.Bug_catalog.faults;
    clock = entry.Bug_catalog.clock;
  }

let test_retry_bug_found_under_clock () =
  let entry = retry_entry () in
  match
    E.run ~monitors:entry.Bug_catalog.monitors
      (retry_cfg entry ~executions:2_000)
      entry.Bug_catalog.harness
  with
  | E.Bug_found (report, _) -> begin
    match report.Error.kind with
    | Error.Assertion_failure _ -> ()
    | k -> Alcotest.failf "wrong kind: %s" (Error.kind_to_string k)
  end
  | E.No_bug _ -> Alcotest.fail "retry bug not found under virtual time"

let test_retry_bug_unreachable_without_clock () =
  (* Without the clock there is no RPC timeout, so the fresh-seq retry
     path cannot execute at all. *)
  let entry = retry_entry () in
  let cfg = { (retry_cfg entry ~executions:500) with E.clock = None } in
  match E.run ~monitors:entry.Bug_catalog.monitors cfg entry.Bug_catalog.harness with
  | E.No_bug _ -> ()
  | E.Bug_found _ -> Alcotest.fail "timeout-retry bug fired without a clock"

let test_retry_fixed_variant_clean () =
  let entry = retry_entry () in
  match
    E.run ~monitors:entry.Bug_catalog.monitors
      (retry_cfg entry ~executions:2_000)
      entry.Bug_catalog.fixed_harness
  with
  | E.No_bug _ -> ()
  | E.Bug_found (report, stats) ->
    Alcotest.failf "fixed variant tripped after %d executions: %s"
      stats.E.executions
      (Error.kind_to_string report.Error.kind)

let suite =
  [
    Alcotest.test_case "clock fires in deadline order" `Quick
      test_clock_fire_order;
    Alcotest.test_case "clock horizon and cancel" `Quick
      test_clock_horizon_and_cancel;
    Alcotest.test_case "send_after fires in deadline order" `Quick
      test_send_after_fires_in_deadline_order;
    Alcotest.test_case "clock-off send_after is a plain send" `Quick
      test_clock_off_send_after_is_plain_send;
    Alcotest.test_case "timer quiesces under the clock" `Quick
      test_timer_quiesces_under_clock;
    Alcotest.test_case "timer burns the bound without a clock" `Quick
      test_timer_burns_bound_without_clock;
    Alcotest.test_case "flush releases in countdown order" `Quick
      test_flush_releases_in_countdown_order;
    Alcotest.test_case "drain at the bound cools the monitor" `Quick
      test_drain_at_bound_cools_monitor;
    Alcotest.test_case "still hot after the drain is a violation" `Quick
      test_still_hot_after_drain_is_a_violation;
    Alcotest.test_case "retry bug found under virtual time" `Quick
      test_retry_bug_found_under_clock;
    Alcotest.test_case "retry bug unreachable without the clock" `Quick
      test_retry_bug_unreachable_without_clock;
    Alcotest.test_case "retry fixed variant clean" `Quick
      test_retry_fixed_variant_clean;
  ]
