(* Serialization round-trips (ISSUE 5 satellite 3): fixed-seed randomized
   batteries over [Trace.of_string]/[to_string] and
   [Fault.parse]/[to_string], plus strict-parsing rejection cases. *)

module Trace = Psharp.Trace
module Fault = Psharp.Fault
module Prng = Psharp.Prng

(* --- Trace --------------------------------------------------------------- *)

let random_trace prng =
  let len = Prng.int prng 60 in
  let choice () =
    match Prng.int prng 3 with
    | 0 -> Trace.Schedule (Prng.int prng 1_000)
    | 1 -> Trace.Bool (Prng.bool prng)
    | _ -> Trace.Int (Prng.int prng 1_000_000)
  in
  Trace.of_list (List.init len (fun _ -> choice ()))

let test_trace_roundtrip () =
  let prng = Prng.create ~seed:0x7e57L in
  for i = 1 to 600 do
    let t = random_trace prng in
    let s = Trace.to_string t in
    let t' = Trace.of_string s in
    if not (Trace.equal t t') then
      Alcotest.failf "trace round-trip %d failed for %S" i s;
    (* to_string is canonical: a second trip is the identity on strings *)
    if Trace.to_string t' <> s then
      Alcotest.failf "trace to_string not canonical on case %d" i
  done

let test_trace_rejections () =
  List.iter
    (fun s ->
      match Trace.of_string s with
      | exception Failure _ -> ()
      | _ -> Alcotest.failf "malformed trace %S accepted" s)
    [
      "s:";            (* missing value *)
      "s:x";           (* not an int *)
      "b:2";           (* not a canonical bool *)
      "b:true";        (* wrong bool spelling *)
      "i:";            (* missing value *)
      "q:1";           (* unknown tag *)
      "s:1 s:2";       (* two choices on one line *)
      "s:1\n\ns:2";    (* blank line inside *)
      "s:1 ";          (* trailing junk *)
      "s:+1";          (* non-canonical int *)
    ]

(* --- Fault --------------------------------------------------------------- *)

let random_spec prng =
  let kinds =
    List.filter
      (fun _ -> Prng.bool prng)
      [ Fault.Drop; Fault.Duplicate; Fault.Delay; Fault.Crash ]
  in
  if kinds = [] then Fault.none
  else Fault.make ~budget:(Prng.int prng 10) kinds

let test_fault_roundtrip () =
  let prng = Prng.create ~seed:0xfa17L in
  for i = 1 to 600 do
    let s = random_spec prng in
    let str = Fault.to_string s in
    match Fault.parse str with
    | Error e -> Alcotest.failf "case %d: %S did not parse back: %s" i str e
    | Ok s' ->
      (* max_delay is not serialized; everything else must survive *)
      if Fault.kinds s' <> Fault.kinds s then
        Alcotest.failf "case %d: kinds changed through %S" i str;
      let budget' = if Fault.kinds s = [] then 0 else s.Fault.budget in
      if s'.Fault.budget <> budget' then
        Alcotest.failf "case %d: budget changed through %S" i str;
      (* and to_string is a fixpoint of the grammar *)
      if Fault.to_string s' <> str then
        Alcotest.failf "case %d: to_string not canonical on %S" i str
  done

let test_fault_parse_accepts () =
  (match Fault.parse "none" with
   | Ok s -> Alcotest.(check bool) "none parses" false (Fault.enabled s)
   | Error e -> Alcotest.failf "none rejected: %s" e);
  (match Fault.parse "drop,crash(budget=3)" with
   | Ok s ->
     Alcotest.(check int) "budget suffix parsed" 3 s.Fault.budget;
     Alcotest.(check bool) "kinds parsed" true (s.Fault.drop && s.Fault.crash)
   | Error e -> Alcotest.failf "budget suffix rejected: %s" e);
  match Fault.parse "delay" with
  | Ok s ->
    Alcotest.(check int) "no suffix: budget 1" 1 s.Fault.budget;
    Alcotest.(check bool) "plain delay parsed" true s.Fault.delay
  | Error e -> Alcotest.failf "plain kind rejected: %s" e

let test_fault_rejections () =
  List.iter
    (fun s ->
      match Fault.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed fault spec %S accepted" s)
    [
      "";
      "lightning";
      "drop(budget=)";
      "drop(budget=x)";
      "drop(budget=-1)";
      "drop(budget=1";      (* unclosed *)
      "drop(limit=1)";
      "(budget=1)";         (* no kinds *)
      "none,drop";          (* none only stands alone *)
      "delay:";             (* kinds take no distribution suffix *)
      "delay:gaussian";
      "delay:uniform";
      "delay:bimodal";
      "drop:bimodal";
      "delay,delay:bimodal";
    ]

(* --- Scenario ------------------------------------------------------------ *)

module Scenario = Psharp.Scenario

let random_pat prng =
  let names =
    [| "Tables"; "Replica"; "EN"; "Client"; "N2"; "S"; "Harness"; "a_b-c.9" |]
  in
  let base = names.(Prng.int prng (Array.length names)) in
  match Prng.int prng 3 with
  | 0 -> Scenario.pat "*"
  | 1 -> Scenario.pat base
  | _ -> Scenario.pat (base ^ "*")

let random_trigger prng =
  match Prng.int prng 8 with
  | 0 -> Scenario.start
  | 1 -> Scenario.at_step (Prng.int prng 1_000)
  | 2 -> Scenario.at_time (Prng.int prng 1_000)
  | 3 -> Scenario.delivered (random_pat prng)
  | 4 -> Scenario.delivered ~count:(2 + Prng.int prng 5) (random_pat prng)
  | 5 -> Scenario.entered (random_pat prng) "Repairing"
  | 6 -> Scenario.quiet (random_pat prng)
  | _ -> Scenario.crashed (random_pat prng)

(* [until start] never opens a window, so it is rejected by construction
   (the trigger type is abstract: probe with a throwaway clause); draw
   until the trigger is accepted. *)
let rec random_until prng =
  let t = random_trigger prng in
  match
    Scenario.pause (Scenario.pat "probe") ~from_:Scenario.start ~until_:t
  with
  | _ -> t
  | exception Invalid_argument _ -> random_until prng

let random_clause prng =
  let w f =
    f ~from_:(random_trigger prng) ~until_:(random_until prng)
  in
  match Prng.int prng 8 with
  | 0 ->
    (* order needs distinct patterns *)
    let rec distinct () =
      let a = random_pat prng and b = random_pat prng in
      if Scenario.pat_to_string a = Scenario.pat_to_string b then distinct ()
      else Scenario.order a b
    in
    distinct ()
  | 1 -> Scenario.crash_when (random_pat prng) ~after:(random_trigger prng)
  | 2 -> w (Scenario.partition (random_pat prng) (random_pat prng))
  | 3 -> w (Scenario.drop_link ~src:(random_pat prng) ~dst:(random_pat prng))
  | 4 -> w (Scenario.dup_link ~src:(random_pat prng) ~dst:(random_pat prng))
  | 5 ->
    w
      (Scenario.delay_link ~src:(random_pat prng) ~dst:(random_pat prng)
         ~latency:(1 + Prng.int prng 6))
  | 6 -> w (Scenario.pause (random_pat prng))
  | _ -> w (Scenario.focus (random_pat prng))

let random_scenario prng =
  let n = 1 + Prng.int prng 5 in
  (* [make] rejects duplicate clauses; dedupe by canonical rendering *)
  let seen = Hashtbl.create 8 in
  let rec draw acc k =
    if k = 0 then acc
    else begin
      let c = random_clause prng in
      let s = Scenario.clause_to_string c in
      if Hashtbl.mem seen s then draw acc k
      else begin
        Hashtbl.add seen s ();
        draw (c :: acc) (k - 1)
      end
    end
  in
  Scenario.make (draw [] n)

let test_scenario_roundtrip () =
  let prng = Prng.create ~seed:0x5ce7L in
  for i = 1 to 600 do
    let t = random_scenario prng in
    let s = Scenario.to_string t in
    match Scenario.of_string s with
    | Error e -> Alcotest.failf "case %d: %S did not parse back: %s" i s e
    | Ok t' ->
      (* to_string is canonical: a second trip is the identity on strings *)
      if Scenario.to_string t' <> s then
        Alcotest.failf "case %d: to_string not canonical on %S" i s
  done

let test_scenario_rejections () =
  List.iter
    (fun s ->
      match Scenario.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "malformed scenario %S accepted" s)
    [
      "";                                        (* empty scenario *)
      "crash * after step(5)";                   (* missing final newline *)
      "crash * after step(5)\n\n";               (* blank line *)
      "crash  * after step(5)\n";                (* double space *)
      "Crash * after step(5)\n";                 (* keyword case *)
      "crash * before step(5)\n";                (* wrong preposition *)
      "crash * after step(+5)\n";                (* non-canonical int *)
      "crash * after step(05)\n";                (* non-canonical int *)
      "crash * after step(-1)\n";                (* negative *)
      "crash * after step()\n";                  (* missing int *)
      "crash * after quake(5)\n";                (* unknown trigger *)
      "crash ** after step(5)\n";                (* bad pattern *)
      "crash *x after step(5)\n";                (* glob star not trailing *)
      "crash a/b after step(5)\n";               (* bad pattern char *)
      "order A before A\n";                      (* identical patterns *)
      "order A before B\norder A before B\n";    (* duplicate clause *)
      "pause M from start until start\n";        (* until start: no window *)
      "drop A->B from start until step(0) \n";   (* trailing junk *)
      "drop A -> B from start until step(9)\n";  (* spaces around arrow *)
      "delay A->B lat=0 from start until step(9)\n";   (* latency < 1 *)
      "delay A->B lat=2s from start until step(9)\n";  (* bad latency *)
      "dup A->B until step(9)\n";                (* missing from *)
      "partition A|B from start\n";              (* missing until *)
      "focus M from start until delivered(E x1)\n";   (* x1 renders bare *)
      "focus M from start until delivered(E x0)\n";   (* count < 1 *)
      "crash * after state(M,)\n";               (* empty state name *)
    ]

let test_scenario_catalog_fixpoints () =
  List.iter
    (fun e ->
      let s = e.Catalog.Scenario_catalog.text in
      match Scenario.of_string s with
      | Error err ->
        Alcotest.failf "catalog %s text does not parse: %s"
          e.Catalog.Scenario_catalog.name err
      | Ok t ->
        Alcotest.(check string)
          (e.Catalog.Scenario_catalog.name ^ " text is canonical")
          s (Scenario.to_string t))
    Catalog.Scenario_catalog.all

let suite =
  [
    Alcotest.test_case "trace round-trip x600" `Quick test_trace_roundtrip;
    Alcotest.test_case "trace strict rejections" `Quick test_trace_rejections;
    Alcotest.test_case "fault round-trip x600" `Quick test_fault_roundtrip;
    Alcotest.test_case "fault parse acceptances" `Quick
      test_fault_parse_accepts;
    Alcotest.test_case "fault strict rejections" `Quick test_fault_rejections;
    Alcotest.test_case "scenario round-trip x600" `Quick
      test_scenario_roundtrip;
    Alcotest.test_case "scenario strict rejections" `Quick
      test_scenario_rejections;
    Alcotest.test_case "scenario catalog texts are canonical" `Quick
      test_scenario_catalog_fixpoints;
  ]
