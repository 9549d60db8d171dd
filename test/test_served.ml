(* Served machines ([Runtime.serve]) against fiber machines, and the
   incremental enabled set against its slow reference.

   The differential property writes every machine of a random script
   twice: once as a [receive] loop (a fiber) and once with [serve]. Both
   forms must give the same execution, byte for byte: trace, verdict
   (deadlock [blocked] lists included), log, coverage and happens-before
   fingerprint. *)

module R = Psharp.Runtime
module Event = Psharp.Event
module Error = Psharp.Error
module Trace = Psharp.Trace
module Sm = Psharp.Statemachine
module Cat = Catalog.Bug_catalog

type Event.t += Msg of int | Ping of int

(* --- Scripts ------------------------------------------------------------- *)

type action =
  | Send of int * int  (* target slot, payload *)
  | Send_unless of int * int  (* send_unless_pending *)
  | Send_faulty of int * int
  | Flip of int * int  (* a nondet coin; heads sends a Ping *)
  | Send_halt of int  (* Event.Halt_event *)
  | Crash of int  (* only persistent, live, other machines *)
  | Halt_self
  | Log
  | Fail  (* assert_here false *)

(* What a state machine does after a handled [Msg]; plain machines ignore
   it. *)
type tr = Stay | Goto_b | Push_c | Pop | Halt_m

type rule = { acts : action list; tr : tr }

type spec = {
  persistent : bool;
  sm : bool;
  rules : rule array;  (* the rule for payload [v] is [v mod length] *)
}

type script = {
  machines : spec array;
  initial : (int * int) list;  (* the root's sends: slot, payload *)
  faults : bool;  (* drop, duplicate and delay armed, budget 3 *)
}

let show_action = function
  | Send (j, v) -> Printf.sprintf "send %d %d" j v
  | Send_unless (j, v) -> Printf.sprintf "send_unless %d %d" j v
  | Send_faulty (j, v) -> Printf.sprintf "send_faulty %d %d" j v
  | Flip (j, v) -> Printf.sprintf "flip %d %d" j v
  | Send_halt j -> Printf.sprintf "send_halt %d" j
  | Crash j -> Printf.sprintf "crash %d" j
  | Halt_self -> "halt"
  | Log -> "log"
  | Fail -> "fail"

let show_tr = function
  | Stay -> "stay"
  | Goto_b -> "goto B"
  | Push_c -> "push C"
  | Pop -> "pop"
  | Halt_m -> "halt"

let show s =
  let spec i sp =
    Printf.sprintf "  m%d%s%s: %s" i
      (if sp.persistent then " persistent" else "")
      (if sp.sm then " sm" else "")
      (String.concat " | "
         (Array.to_list
            (Array.map
               (fun r ->
                 String.concat "; " (List.map show_action r.acts)
                 ^ " => " ^ show_tr r.tr)
               sp.rules)))
  in
  String.concat "\n"
    (Printf.sprintf "faults %b, initial [%s]" s.faults
       (String.concat "; "
          (List.map (fun (j, v) -> Printf.sprintf "%d:%d" j v) s.initial))
    :: Array.to_list (Array.mapi spec s.machines))

let gen_script =
  let open QCheck.Gen in
  let slot = 0 -- 4 and payload = 0 -- 7 in
  let action =
    frequency
      [
        (12, map2 (fun j v -> Send (j, v)) slot payload);
        (4, map2 (fun j v -> Send_unless (j, v)) slot payload);
        (6, map2 (fun j v -> Send_faulty (j, v)) slot payload);
        (4, map2 (fun j v -> Flip (j, v)) slot payload);
        (2, map (fun j -> Send_halt j) slot);
        (3, map (fun j -> Crash j) slot);
        (1, return Halt_self);
        (2, return Log);
        (1, return Fail);
      ]
  in
  let tr =
    frequencyl [ (5, Stay); (2, Goto_b); (2, Push_c); (1, Pop); (1, Halt_m) ]
  in
  let rule =
    map2 (fun acts tr -> { acts; tr }) (list_size (0 -- 3) action) tr
  in
  let spec =
    map3
      (fun persistent sm rules ->
        { persistent; sm; rules = Array.of_list rules })
      bool bool
      (list_size (1 -- 4) rule)
  in
  map3
    (fun machines initial faults ->
      { machines = Array.of_list machines; initial; faults })
    (list_size (1 -- 5) spec)
    (list_size (1 -- 4) (pair slot payload))
    bool

(* --- Running a script in one form --------------------------------------- *)

let msg_name = Event.name (Msg 0)
let ping_name = Event.name (Ping 0)

(* One handled event's actions, identical in both forms. *)
let perform ctx ~ids ~(specs : spec array) ~disk acts =
  let n = Array.length ids in
  let slot j = ids.(j mod n) in
  List.iter
    (function
      | Send (j, v) -> R.send ctx (slot j) (Msg v)
      | Send_unless (j, v) -> R.send_unless_pending ctx (slot j) (Msg v)
      | Send_faulty (j, v) -> R.send_faulty ctx (slot j) (Msg v)
      | Flip (j, v) -> if R.nondet ctx then R.send ctx (slot j) (Ping v)
      | Send_halt j -> R.send ctx (slot j) Event.Halt_event
      | Crash j ->
        let target = slot j in
        if specs.(j mod n).persistent
           && R.alive ctx target
           && not (Psharp.Id.equal target (R.self ctx))
        then R.crash ctx target
      | Halt_self -> R.halt ctx
      | Log ->
        if R.logging ctx then
          R.log ctx (Printf.sprintf "disk %d" !disk)
      | Fail -> R.assert_here ctx false "scripted failure")
    acts

let plain_handler ctx ~ids ~specs ~disk spec = function
  | Msg v | Ping v ->
    incr disk;
    perform ctx ~ids ~specs ~disk
      spec.rules.(v mod Array.length spec.rules).acts
  | Event.Halt_event -> R.halt ctx
  | _ -> ()

(* A: handles Msg, ignores Ping. B: defers Msg, a Ping returns to A.
   C (pushed): a Ping pops; Msg falls through to the state below. *)
let sm_args _ctx ~ids ~specs ~disk spec =
  let on_msg ctx () e =
    match e with
    | Msg v ->
      incr disk;
      let r = spec.rules.(v mod Array.length spec.rules) in
      perform ctx ~ids ~specs ~disk r.acts;
      (match r.tr with
       | Stay -> Sm.Stay
       | Goto_b -> Sm.Goto "B"
       | Push_c -> Sm.Push "C"
       | Pop -> Sm.Pop
       | Halt_m -> Sm.Halt_machine)
    | _ -> Sm.Unhandled
  in
  let on_ping target ctx () e =
    match e with
    | Ping v ->
      perform ctx ~ids ~specs ~disk
        spec.rules.(v mod Array.length spec.rules).acts;
      target
    | _ -> Sm.Unhandled
  in
  [
    Sm.state "A" ~ignore_:[ ping_name ] [ (msg_name, on_msg) ];
    Sm.state "B" ~defer:[ msg_name ]
      [ (ping_name, on_ping (Sm.Goto "A")) ];
    Sm.state "C" [ (ping_name, on_ping Sm.Pop) ];
  ]

let machine_body ~served ~ids ~specs ~disk spec ctx =
  let states () = sm_args ctx ~ids ~specs ~disk spec in
  if served && spec.sm then
    Sm.run ctx ~machine:"Scripted" ~states:(states ()) ~init:"A" ()
  else
    let handler =
      if spec.sm then
        Sm.handler ctx ~machine:"Scripted" ~states:(states ()) ~init:"A" ()
      else plain_handler ctx ~ids ~specs ~disk spec
    in
    if served then R.serve ctx handler
    else
      let rec loop () =
        handler (R.receive ctx);
        loop ()
      in
      loop ()

let root ~served script ctx =
  let specs = script.machines in
  let n = Array.length specs in
  let ids = Array.make n (R.self ctx) in
  Array.iteri
    (fun i spec ->
      let disk = ref 0 in
      let body () = machine_body ~served ~ids ~specs ~disk spec in
      let name = Printf.sprintf "M%d" i in
      ids.(i) <-
        (if spec.persistent then R.create ctx ~name ~persistent:body (body ())
         else R.create ctx ~name (body ())))
    specs;
  List.iter (fun (j, v) -> R.send ctx ids.(j mod n) (Msg v)) script.initial

type observed = {
  trace : string;
  verdict : string;
  bug_step : int;
  steps : int;
  log : string list;
  injected : int;
  hb : int64;
  coverage : Psharp.Coverage.t;
}

let run_form ~served ~pct ~seed script =
  let factory =
    if pct then
      Psharp.Pct_strategy.factory ~seed ~change_points:2 ~max_steps:300 ()
    else Psharp.Random_strategy.factory ~seed
  in
  let strategy =
    match factory.Psharp.Strategy.fresh ~iteration:0 with
    | Some s -> s
    | None -> assert false
  in
  let hb = Psharp.Hb.create () in
  let coverage = Psharp.Coverage.create () in
  let faults =
    if script.faults then
      Psharp.Fault.make ~budget:3 Psharp.Fault.[ Drop; Duplicate; Delay ]
    else Psharp.Fault.none
  in
  let r =
    R.execute
      {
        R.default_config with
        R.max_steps = 300;
        collect_log = true;
        hb = Some hb;
        coverage = Some coverage;
        faults;
      }
      strategy ~monitors:[] ~name:"Root" (root ~served script)
  in
  {
    trace = Trace.to_string r.R.choices;
    verdict =
      (match r.R.bug with
       | None -> "none"
       | Some k -> Error.kind_to_string k);
    bug_step = r.R.bug_step;
    steps = r.R.steps;
    log = r.R.log;
    injected = r.R.faults_injected;
    hb = Psharp.Hb.canonical_fingerprint hb;
    coverage;
  }

let same a b =
  a.trace = b.trace && a.verdict = b.verdict && a.bug_step = b.bug_step
  && a.steps = b.steps && a.log = b.log && a.injected = b.injected
  && Int64.equal a.hb b.hb
  && Psharp.Coverage.equal a.coverage b.coverage

let prop_served_equals_fiber =
  QCheck.Test.make ~name:"served machines ≡ fiber machines" ~count:300
    (QCheck.make ~print:show gen_script)
    (fun script ->
      List.for_all
        (fun (pct, seed) ->
          let fiber = run_form ~served:false ~pct ~seed script in
          let served = run_form ~served:true ~pct ~seed script in
          same fiber served
          || QCheck.Test.fail_reportf
               "pct %b seed %Ld: fiber %s after %d steps, served %s after %d \
                steps"
               pct seed fiber.verdict fiber.steps served.verdict served.steps)
        [ (false, 1L); (false, 2L); (true, 3L) ])

let contains sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* The property is only as good as the verdicts it sees: the generator
   must reach deadlocks, step bounds, halts, crashes, faults and bugs. *)
let test_generator_reaches_outcomes () =
  let rand = Random.State.make [| 7 |] in
  let deadlocks = ref 0 and bounds = ref 0 and bugs = ref 0
  and crashes = ref 0 and faults = ref 0 in
  for _ = 1 to 300 do
    let script = QCheck.Gen.generate1 ~rand gen_script in
    let o = run_form ~served:true ~pct:false ~seed:1L script in
    if String.length o.verdict >= 8 && String.sub o.verdict 0 8 = "deadlock"
    then incr deadlocks
    else if o.verdict = "none" then incr bounds
    else incr bugs;
    if List.exists (contains "FAULT crash") o.log then
      incr crashes;
    if o.injected > 0 then incr faults
  done;
  List.iter
    (fun (what, n) ->
      if n = 0 then Alcotest.failf "no generated script reached: %s" what)
    [
      ("a deadlock", !deadlocks);
      ("the step bound", !bounds);
      ("a bug", !bugs);
      ("a crash", !crashes);
      ("a message fault", !faults);
    ]

(* --- Served machines: unit tests ----------------------------------------- *)

let execute ?(cfg = { R.default_config with R.max_steps = 200 }) body =
  let strategy =
    match (Psharp.Random_strategy.factory ~seed:1L).Psharp.Strategy.fresh
            ~iteration:0
    with
    | Some s -> s
    | None -> assert false
  in
  R.execute cfg strategy ~monitors:[] ~name:"Root" body

let expect_named_misuse fn block =
  let cfg =
    {
      R.default_config with
      R.max_steps = 200;
      clock = Some Psharp.Clock.default_config;
    }
  in
  let r =
    execute ~cfg (fun ctx ->
        let s =
          R.create ctx ~name:"Served" (fun sctx ->
              R.serve sctx (fun _ -> block sctx))
        in
        R.send ctx s (Msg 0))
  in
  match r.R.bug with
  | Some (Error.Machine_exception { machine; exn }) ->
    Alcotest.(check string) "machine" "Served(1)" machine;
    Alcotest.(check string) "exception"
      (Printf.sprintf
         "Invalid_argument(\"%s: a served machine's handler cannot block\")"
         fn)
      exn
  | Some k ->
    Alcotest.failf "%s: unexpected verdict %s" fn (Error.kind_to_string k)
  | None -> Alcotest.failf "%s in a served handler went unreported" fn

let test_misuse_is_named () =
  expect_named_misuse "Runtime.receive" (fun ctx -> ignore (R.receive ctx));
  expect_named_misuse "Runtime.receive_where" (fun ctx ->
      ignore (R.receive_where ctx (fun _ -> true)))

type Event.t += Restarted of int | Handled of int

let test_served_crash_restart () =
  let handled = ref [] in
  let r =
    execute (fun ctx ->
        let root = R.self ctx in
        let starts = ref 0 in
        let body () sctx =
          incr starts;
          R.send sctx root (Restarted !starts);
          R.serve sctx (function
            | Msg v ->
              handled := v :: !handled;
              R.send sctx root (Handled v)
            | _ -> ())
        in
        let s = R.create ctx ~name:"Served" ~persistent:body (body ()) in
        let wait p = ignore (R.receive_where ctx p) in
        wait (function Restarted 1 -> true | _ -> false);
        R.send ctx s (Msg 1);
        wait (function Handled 1 -> true | _ -> false);
        R.crash ctx s;
        wait (function Restarted 2 -> true | _ -> false);
        R.send ctx s (Msg 2);
        wait (function Handled 2 -> true | _ -> false);
        R.send ctx s Event.Halt_event)
  in
  (* the served machine ignores Halt_event, so it ends blocked *)
  (match r.R.bug with
   | Some (Error.Deadlock { blocked }) ->
     Alcotest.(check (list string)) "a served machine counts as blocked"
       [ "Served(1)" ] blocked
   | Some k -> Alcotest.failf "unexpected verdict %s" (Error.kind_to_string k)
   | None -> Alcotest.fail "expected the idle served machine to deadlock");
  Alcotest.(check (list int)) "handled before and after the restart" [ 1; 2 ]
    (List.rev !handled)

let test_serve_replaces_handler () =
  let seen = ref [] in
  let r =
    execute (fun ctx ->
        let s =
          R.create ctx ~name:"Served" (fun sctx ->
              R.serve sctx (fun e ->
                  seen := ("first", e) :: !seen;
                  R.serve sctx (fun e -> seen := ("second", e) :: !seen)))
        in
        R.send ctx s (Msg 1);
        R.send ctx s (Msg 2);
        R.send ctx s (Msg 3))
  in
  Alcotest.(check bool) "ends blocked, no other bug" true
    (match r.R.bug with Some (Error.Deadlock _) -> true | _ -> false);
  Alcotest.(check (list string)) "the second handler takes over"
    [ "first 1"; "second 2"; "second 3" ]
    (List.rev_map
       (function
         | who, Msg v -> Printf.sprintf "%s %d" who v
         | who, _ -> who ^ " ?")
       !seen)

(* --- The enabled set against its slow reference -------------------------- *)

let test_enabled_audit () =
  let strategies =
    [ Psharp.Engine.Random; Psharp.Engine.Pct { change_points = 2 } ]
  in
  R.Enabled_audit.set true;
  let checks =
  Fun.protect
    ~finally:(fun () -> R.Enabled_audit.set false)
    (fun () ->
      List.iter
        (fun (e : Cat.entry) ->
          let harnesses =
            (e.Cat.harness :: Option.to_list e.Cat.custom_harness)
            @ [ e.Cat.fixed_harness ]
          in
          List.iter
            (fun harness ->
              List.iter
                (fun strategy ->
                  ignore
                    (Psharp.Engine.run ~monitors:e.Cat.monitors
                       {
                         (Cat.config e) with
                         Psharp.Engine.strategy;
                         seed = 5L;
                         max_executions = 6;
                       }
                       harness))
                strategies)
            harnesses)
        Cat.all;
      R.Enabled_audit.checks ())
  in
  if checks < 10_000 then
    Alcotest.failf "the audit compared only %d enabled sets" checks;
  (* and it is off again *)
  ignore (execute (fun _ -> ()));
  Alcotest.(check int) "off after the test" 0 (R.Enabled_audit.checks ())

let suite =
  [
    QCheck_alcotest.to_alcotest prop_served_equals_fiber;
    Alcotest.test_case "differential scripts reach every outcome" `Quick
      test_generator_reaches_outcomes;
    Alcotest.test_case "receive and receive_where in a handler are named"
      `Quick test_misuse_is_named;
    Alcotest.test_case "a served machine crashes and restarts" `Quick
      test_served_crash_restart;
    Alcotest.test_case "serve from a handler replaces the handler" `Quick
      test_serve_replaces_handler;
    Alcotest.test_case "enabled set = full scan on every catalog harness"
      `Quick test_enabled_audit;
  ]
