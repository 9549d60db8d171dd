(* Core runtime semantics: machine lifecycle, FIFO delivery, nondet
   recording, halting, deadlock and liveness detection. *)

module R = Psharp.Runtime
module Event = Psharp.Event
module Error = Psharp.Error
module Trace = Psharp.Trace

type Event.t += Msg of int | Ping | Pong

let strategy ~seed =
  match (Psharp.Random_strategy.factory ~seed).Psharp.Strategy.fresh ~iteration:0 with
  | Some s -> s
  | None -> assert false

let config =
  { R.default_config with max_steps = 1_000; deadlock_is_bug = true }

let execute ?(cfg = config) ?(monitors = []) body =
  R.execute cfg (strategy ~seed:1L) ~monitors ~name:"Root" body

let test_clean_completion () =
  let result = execute (fun ctx -> ignore (R.self ctx)) in
  Alcotest.(check bool) "no bug" true (result.R.bug = None)

let test_fifo_per_sender () =
  (* One sender, one receiver: delivery order must match send order. *)
  let received = ref [] in
  let result =
    execute (fun ctx ->
        let receiver =
          R.create ctx ~name:"Receiver" (fun rctx ->
              for _ = 1 to 5 do
                match R.receive rctx with
                | Msg i -> received := i :: !received
                | _ -> ()
              done)
        in
        for i = 1 to 5 do
          R.send ctx receiver (Msg i)
        done)
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3; 4; 5 ]
    (List.rev !received)

let test_receive_where () =
  let got = ref (-1) in
  let result =
    execute (fun ctx ->
        let receiver =
          R.create ctx ~name:"Receiver" (fun rctx ->
              (match
                 R.receive_where rctx (function Msg i -> i > 2 | _ -> false)
               with
               | Msg i -> got := i
               | _ -> ());
              (* remaining events still delivered in order *)
              match R.receive rctx with
              | Msg i -> Alcotest.(check int) "skipped stays first" 1 i
              | _ -> ())
        in
        R.send ctx receiver (Msg 1);
        R.send ctx receiver (Msg 3))
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check int) "filtered receive" 3 !got

let test_halt_drops_messages () =
  let result =
    execute (fun ctx ->
        let dead = R.create ctx ~name:"Dead" (fun hctx -> R.halt hctx) in
        (* Give the scheduler a chance to start (and halt) the machine, then
           send — the send must be dropped silently. *)
        let _waiter =
          R.create ctx ~name:"Waiter" (fun wctx ->
              ignore (R.receive_where wctx (function
                | Pong -> true
                | _ -> false)))
        in
        R.send ctx dead (Msg 1))
  in
  (* waiter never gets Pong -> deadlock expected, not a crash *)
  match result.R.bug with
  | Some (Error.Deadlock _) -> ()
  | other ->
    Alcotest.failf "expected deadlock, got %s"
      (match other with
       | None -> "no bug"
       | Some k -> Error.kind_to_string k)

let test_deadlock_detection () =
  let result =
    execute (fun ctx -> ignore (R.receive ctx) (* root waits forever *))
  in
  match result.R.bug with
  | Some (Error.Deadlock { blocked }) ->
    Alcotest.(check bool) "root blocked" true
      (List.exists (fun s -> s = "Root(0)") blocked)
  | _ -> Alcotest.fail "expected deadlock"

let test_deadlock_opt_out () =
  let cfg = { config with R.deadlock_is_bug = false } in
  let result = execute ~cfg (fun ctx -> ignore (R.receive ctx)) in
  Alcotest.(check bool) "no bug when opted out" true (result.R.bug = None)

let test_machine_exception () =
  let result = execute (fun _ctx -> failwith "boom") in
  match result.R.bug with
  | Some (Error.Machine_exception { exn; _ }) ->
    Alcotest.(check bool) "exn mentions boom" true
      (String.length exn > 0)
  | _ -> Alcotest.fail "expected machine exception"

let test_assert_here () =
  let result = execute (fun ctx -> R.assert_here ctx false "bad invariant") in
  match result.R.bug with
  | Some (Error.Assertion_failure { message; _ }) ->
    Alcotest.(check string) "message" "bad invariant" message
  | _ -> Alcotest.fail "expected assertion failure"

let test_nondet_recorded () =
  let result =
    execute (fun ctx ->
        ignore (R.nondet ctx);
        ignore (R.nondet_int ctx 10))
  in
  let has_bool =
    List.exists
      (function Trace.Bool _ -> true | _ -> false)
      (Trace.to_list result.R.choices)
  and has_int =
    List.exists
      (function Trace.Int _ -> true | _ -> false)
      (Trace.to_list result.R.choices)
  in
  Alcotest.(check bool) "bool recorded" true has_bool;
  Alcotest.(check bool) "int recorded" true has_int

let test_choose_singleton_no_choice () =
  let result =
    execute (fun ctx -> Alcotest.(check int) "singleton" 5 (R.choose ctx [ 5 ]))
  in
  let ints =
    List.filter
      (function Trace.Int _ -> true | _ -> false)
      (Trace.to_list result.R.choices)
  in
  Alcotest.(check int) "no choice recorded for singleton" 0 (List.length ints)

let test_send_unless_pending_coalesces () =
  let count = ref 0 in
  let result =
    execute (fun ctx ->
        let receiver =
          R.create ctx ~name:"Receiver" (fun rctx ->
              let rec loop () =
                match R.receive rctx with
                | Ping ->
                  incr count;
                  loop ()
                | Pong -> ()
                | _ -> loop ()
              in
              loop ())
        in
        R.send_unless_pending ctx receiver Ping;
        R.send_unless_pending ctx receiver Ping;
        R.send_unless_pending ctx receiver Ping;
        R.send ctx receiver Pong)
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check int) "coalesced to one" 1 !count

let test_ping_pong_round_trip () =
  let rounds = ref 0 in
  let result =
    execute (fun ctx ->
        let root = R.self ctx in
        let ponger =
          R.create ctx ~name:"Ponger" (fun pctx ->
              let rec loop () =
                match R.receive pctx with
                | Ping ->
                  R.send pctx root Pong;
                  loop ()
                | Event.Halt_event -> R.halt pctx
                | _ -> loop ()
              in
              loop ())
        in
        for _ = 1 to 3 do
          R.send ctx ponger Ping;
          (match R.receive ctx with Pong -> incr rounds | _ -> ());
          ()
        done;
        R.send ctx ponger Event.Halt_event)
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check int) "three round trips" 3 !rounds

let test_monitor_safety_violation () =
  let monitor () =
    Psharp.Monitor.make ~name:"M" ~initial:"S"
      ~states:[ ("S", Psharp.Monitor.Neutral) ] (fun m e ->
        match e with
        | Msg i when i > 2 -> Psharp.Monitor.fail m "too big"
        | _ -> ())
  in
  let result =
    execute ~monitors:[ monitor () ] (fun ctx -> R.notify ctx "M" (Msg 5))
  in
  match result.R.bug with
  | Some (Error.Safety_violation { monitor = "M"; message }) ->
    Alcotest.(check string) "message" "too big" message
  | _ -> Alcotest.fail "expected safety violation"

let test_monitor_liveness_violation () =
  let monitor () =
    Psharp.Monitor.make ~name:"L" ~initial:"Cold"
      ~states:[ ("Cold", Psharp.Monitor.Cold); ("Hot", Psharp.Monitor.Hot) ]
      (fun m e ->
        match e with
        | Ping -> Psharp.Monitor.goto m "Hot"
        | _ -> ())
  in
  (* Root notifies hot, then a timer loops forever: the bound is reached
     with the monitor hot the whole time. *)
  let cfg = { config with R.max_steps = 200; liveness_grace = Some 50 } in
  let result =
    R.execute cfg (strategy ~seed:3L) ~monitors:[ monitor () ] ~name:"Root"
      (fun ctx ->
        R.notify ctx "L" Ping;
        let rec spin n =
          if n > 0 then begin
            R.send ctx (R.self ctx) Pong;
            ignore (R.receive ctx);
            spin (n - 1)
          end
        in
        spin 10_000)
  in
  match result.R.bug with
  | Some (Error.Liveness_violation { monitor = "L"; _ }) -> ()
  | _ -> Alcotest.fail "expected liveness violation"

let test_liveness_grace_suppresses_fresh_hot () =
  (* Monitor goes hot only at the very end: with a grace window it must NOT
     be reported. *)
  let monitor () =
    Psharp.Monitor.make ~name:"L" ~initial:"Cold"
      ~states:[ ("Cold", Psharp.Monitor.Cold); ("Hot", Psharp.Monitor.Hot) ]
      (fun m e ->
        match e with
        | Ping -> Psharp.Monitor.goto m "Hot"
        | _ -> ())
  in
  let cfg = { config with R.max_steps = 100; liveness_grace = Some 50 } in
  let result =
    R.execute cfg (strategy ~seed:1L) ~monitors:[ monitor () ] ~name:"Root"
      (fun ctx ->
        let rec spin n =
          if n = 95 then R.notify ctx "L" Ping;
          if n > 0 then begin
            R.send ctx (R.self ctx) Pong;
            ignore (R.receive ctx);
            spin (n - 1)
          end
        in
        spin 200)
  in
  Alcotest.(check bool) "fresh hot not reported" true (result.R.bug = None)

let test_create_ids_sequential () =
  let ids = ref [] in
  let result =
    execute (fun ctx ->
        for i = 0 to 2 do
          let id =
            R.create ctx ~name:(Printf.sprintf "M%d" i) (fun _ -> ())
          in
          ids := Psharp.Id.index id :: !ids
        done)
  in
  Alcotest.(check bool) "no bug" true (result.R.bug = None);
  Alcotest.(check (list int)) "sequential indices" [ 1; 2; 3 ] (List.rev !ids)

(* --- releasing fibers at the end of an execution ------------------------ *)

type Event.t += Never | Started

(* The root leaves behind a machine blocked for good in a filtered
   [receive] under [Fun.protect]. With [noisy], its finaliser tries a
   send, a draw and a log line, each of which must raise instead of
   recording. *)
let blocked_harness ~unwound ~refused ~noisy ctx =
  let root = R.self ctx in
  let stuck =
    R.create ctx ~name:"Stuck" (fun sctx ->
        Fun.protect
          ~finally:(fun () ->
            incr unwound;
            if noisy then begin
              (try R.send sctx root Never with _ -> incr refused);
              (try ignore (R.nondet sctx : bool) with _ -> incr refused);
              try R.log sctx "unwinding" with _ -> incr refused
            end)
          (fun () ->
            if R.nondet sctx then R.send sctx root Started;
            ignore
              (R.receive_where sctx (function Never -> true | _ -> false))))
  in
  ignore (R.nondet ctx : bool);
  R.send ctx stuck Ping

let run_blocked ~noisy =
  let unwound = ref 0 and refused = ref 0 in
  let cov = Psharp.Coverage.create () in
  let runs =
    List.init 10 (fun iteration ->
        let hb = Psharp.Hb.create () in
        let strategy =
          Option.get
            ((Psharp.Random_strategy.factory ~seed:3L).Psharp.Strategy.fresh
               ~iteration)
        in
        let r =
          R.execute
            {
              config with
              R.deadlock_is_bug = false;
              collect_log = true;
              coverage = Some cov;
              hb = Some hb;
            }
            strategy ~monitors:[] ~name:"Root"
            (blocked_harness ~unwound ~refused ~noisy)
        in
        ( Trace.to_string r.R.choices,
          r.R.log,
          r.R.bug = None,
          Psharp.Hb.canonical_fingerprint hb ))
  in
  (runs, cov, !unwound, !refused)

let test_release_blocked () =
  let quiet, quiet_cov, quiet_unwound, _ = run_blocked ~noisy:false in
  let noisy, noisy_cov, noisy_unwound, refused = run_blocked ~noisy:true in
  Alcotest.(check int) "one unwind per execution" 10 quiet_unwound;
  Alcotest.(check int) "one unwind per execution (noisy)" 10 noisy_unwound;
  Alcotest.(check int) "every runtime call in a finaliser raises" 30 refused;
  List.iter2
    (fun (trace, log, clean, hb) (trace', log', clean', hb') ->
      Alcotest.(check bool) "clean" true (clean && clean');
      Alcotest.(check string) "same trace" trace trace';
      Alcotest.(check (list string)) "same log" log log';
      Alcotest.(check int64) "same hb fingerprint" hb hb')
    quiet noisy;
  Alcotest.(check bool) "same coverage" true
    (Psharp.Coverage.equal quiet_cov noisy_cov)

let test_release_crashed () =
  let unwound = ref 0 and during = ref (-1) in
  let result =
    execute ~cfg:{ config with R.deadlock_is_bug = false } (fun ctx ->
        let root = R.self ctx in
        let body () pctx =
          R.send pctx root Started;
          Fun.protect
            ~finally:(fun () -> incr unwound)
            (fun () ->
              ignore
                (R.receive_where pctx (function Never -> true | _ -> false)))
        in
        let p = R.create ctx ~name:"P" ~persistent:body (body ()) in
        let started () =
          ignore (R.receive_where ctx (function Started -> true | _ -> false))
        in
        started ();
        R.crash ctx p;
        started ();
        during := !unwound)
  in
  Alcotest.(check bool) "clean" true (result.R.bug = None);
  Alcotest.(check int) "a crash does not unwind its victim" 0 !during;
  Alcotest.(check int) "crashed and restarted continuations both unwind" 2
    !unwound

let suite =
  [
    Alcotest.test_case "clean completion" `Quick test_clean_completion;
    Alcotest.test_case "fifo per sender" `Quick test_fifo_per_sender;
    Alcotest.test_case "filtered receive" `Quick test_receive_where;
    Alcotest.test_case "send to halted dropped" `Quick test_halt_drops_messages;
    Alcotest.test_case "deadlock detection" `Quick test_deadlock_detection;
    Alcotest.test_case "deadlock opt-out" `Quick test_deadlock_opt_out;
    Alcotest.test_case "machine exception" `Quick test_machine_exception;
    Alcotest.test_case "assert_here" `Quick test_assert_here;
    Alcotest.test_case "nondet recorded in trace" `Quick test_nondet_recorded;
    Alcotest.test_case "choose singleton" `Quick test_choose_singleton_no_choice;
    Alcotest.test_case "send_unless_pending coalesces" `Quick
      test_send_unless_pending_coalesces;
    Alcotest.test_case "ping-pong round trips" `Quick test_ping_pong_round_trip;
    Alcotest.test_case "monitor safety violation" `Quick
      test_monitor_safety_violation;
    Alcotest.test_case "monitor liveness violation" `Quick
      test_monitor_liveness_violation;
    Alcotest.test_case "liveness grace suppresses fresh hot" `Quick
      test_liveness_grace_suppresses_fresh_hot;
    Alcotest.test_case "machine ids sequential" `Quick test_create_ids_sequential;
    Alcotest.test_case "blocked fibers released inertly" `Quick
      test_release_blocked;
    Alcotest.test_case "crashed continuations released" `Quick
      test_release_crashed;
  ]
