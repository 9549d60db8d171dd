(* The happens-before recorder: vector-clock merges on delivery, crash and
   monitor edges, the independence relation's algebraic properties on real
   executions, and canonical-fingerprint invariance under commuting swaps. *)

module Hb = Psharp.Hb
module R = Psharp.Runtime
module E = Psharp.Engine
module Event = Psharp.Event
module Trace = Psharp.Trace
module Coverage = Psharp.Coverage

type Event.t += Token | Ping

(* --- unit-level: drive the recorder by hand ----------------------------- *)

(* root starts (step 0), creates machines 1 and 2, sends to 1; machine 1
   dequeues the message (step 1); machine 2 starts untouched (step 2). *)
let three_steps () =
  let h = Hb.create () in
  Hb.on_create h ~parent:(-1) ~child:0;
  Hb.begin_step h ~machine:0 ~msg:(-1);
  Hb.on_create h ~parent:0 ~child:1;
  Hb.on_create h ~parent:0 ~child:2;
  let stamp = Hb.on_send h ~target:1 in
  Hb.begin_step h ~machine:1 ~msg:stamp;
  Hb.begin_step h ~machine:2 ~msg:(-1);
  h

let test_delivery_merge () =
  let h = three_steps () in
  Alcotest.(check int) "three steps" 3 (Hb.steps h);
  Alcotest.(check bool) "send happens-before its delivery" true
    (Hb.ordered h 0 1);
  Alcotest.(check bool) "delivery not before the send" false (Hb.ordered h 1 0);
  Alcotest.(check bool) "creation edge orders the child's start" true
    (Hb.ordered h 0 2);
  Alcotest.(check bool) "siblings with no messages are independent" true
    (Hb.independent h 1 2);
  Alcotest.check_raises "a stamp never issued"
    (Invalid_argument "Hb: unknown message stamp") (fun () ->
      Hb.begin_step h ~machine:1 ~msg:1);
  Alcotest.check_raises "a delivery of a stamp never issued"
    (Invalid_argument "Hb: unknown message stamp") (fun () ->
      Hb.on_delayed_delivery h ~target:1 ~msg:(-1));
  Alcotest.(check int) "a rejected hook records nothing" 3 (Hb.steps h)

let test_ordered_reflexive_independent_irreflexive () =
  let h = three_steps () in
  for i = 0 to Hb.steps h - 1 do
    Alcotest.(check bool) "ordered reflexive" true (Hb.ordered h i i);
    Alcotest.(check bool) "independent irreflexive" false (Hb.independent h i i)
  done

let test_crash_merge () =
  let h = three_steps () in
  (* machine 2 crashes machine 1: the crash conflicts with everything on
     the target, so 1's earlier dequeue step is now in 2's causal past *)
  Hb.begin_step h ~machine:2 ~msg:(-1);
  Hb.on_crash h ~target:1;
  let crash_step = Hb.steps h - 1 in
  Alcotest.(check bool) "target's past flows into the crasher" true
    (Hb.ordered h 1 crash_step);
  (* a subsequent step of the crashed machine sees the crash *)
  Hb.begin_step h ~machine:1 ~msg:(-1);
  Alcotest.(check bool) "restart step ordered after the crash" true
    (Hb.ordered h crash_step (Hb.steps h - 1))

let test_notify_total_order () =
  let h = Hb.create () in
  Hb.on_create h ~parent:(-1) ~child:0;
  Hb.begin_step h ~machine:0 ~msg:(-1);
  Hb.on_create h ~parent:0 ~child:1;
  Hb.on_create h ~parent:0 ~child:2;
  Hb.begin_step h ~machine:1 ~msg:(-1);
  Hb.on_notify h ~monitor:"Liveness";
  let first = Hb.steps h - 1 in
  Hb.begin_step h ~machine:2 ~msg:(-1);
  Hb.on_notify h ~monitor:"Liveness";
  let second = Hb.steps h - 1 in
  Alcotest.(check bool) "notifications of one monitor are ordered" true
    (Hb.ordered h first second);
  Alcotest.(check bool) "and not independent" false
    (Hb.independent h first second);
  (* a different monitor shares no clock: its notifier stays independent *)
  Hb.begin_step h ~machine:1 ~msg:(-1);
  Hb.on_notify h ~monitor:"Safety";
  Alcotest.(check bool) "distinct monitors do not order" true
    (Hb.independent h second (Hb.steps h - 1))

let test_canonical_fingerprint_linearization_invariant () =
  (* the same partial order built in two interleavings: root starts, then
     machines 1 and 2 each take one local step, in either order *)
  let build order =
    let h = Hb.create () in
    Hb.on_create h ~parent:(-1) ~child:0;
    Hb.begin_step h ~machine:0 ~msg:(-1);
    Hb.on_create h ~parent:0 ~child:1;
    Hb.on_create h ~parent:0 ~child:2;
    List.iter (fun m -> Hb.begin_step h ~machine:m ~msg:(-1)) order;
    Hb.canonical_fingerprint h
  in
  Alcotest.(check bool) "swapped independent steps hash identically" true
    (build [ 1; 2 ] = build [ 2; 1 ]);
  (* a genuinely different partial order (1 sends to 2 before 2 runs, vs 2
     running first) must not collapse *)
  let with_send first_sender =
    let h = Hb.create () in
    Hb.on_create h ~parent:(-1) ~child:0;
    Hb.begin_step h ~machine:0 ~msg:(-1);
    Hb.on_create h ~parent:0 ~child:1;
    Hb.on_create h ~parent:0 ~child:2;
    if first_sender then begin
      Hb.begin_step h ~machine:1 ~msg:(-1);
      let stamp = Hb.on_send h ~target:2 in
      Hb.begin_step h ~machine:2 ~msg:stamp
    end
    else begin
      Hb.begin_step h ~machine:2 ~msg:(-1);
      Hb.begin_step h ~machine:1 ~msg:(-1);
      ignore (Hb.on_send h ~target:2)
    end;
    Hb.canonical_fingerprint h
  in
  Alcotest.(check bool) "dependent reorder changes the fingerprint" true
    (with_send true <> with_send false)

(* --- runtime-level: sampled real executions ----------------------------- *)

let run_vnext ~seed =
  let h = Hb.create () in
  let cfg =
    {
      R.max_steps = 3_000;
      liveness_grace = None;
      deadlock_is_bug = true;
      collect_log = false;
      coverage = None;
      hb = Some h;
      faults = Psharp.Fault.none;
      deadline = None;
      clock = None;
      scenario = None;
    }
  in
  let strategy =
    match
      (Psharp.Random_strategy.factory ~seed).Psharp.Strategy.fresh ~iteration:0
    with
    | Some s -> s
    | None -> Alcotest.fail "random factory returned no strategy"
  in
  let result =
    R.execute cfg strategy
      ~monitors:(Vnext.Testing_driver.monitors ())
      ~name:"Harness"
      (Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.none
         ~scenario:Vnext.Testing_driver.Fail_and_repair ())
  in
  (h, result)

let test_sampled_properties () =
  (* every scheduling step of the execution opens exactly one Hb step *)
  List.iter
    (fun seed ->
      let h, result = run_vnext ~seed in
      Alcotest.(check int) "one hb step per scheduling step" result.R.steps
        (Hb.steps h);
      let n = Hb.steps h in
      let prng = Psharp.Prng.create ~seed in
      for _ = 1 to 2_000 do
        let i = Psharp.Prng.int prng n and j = Psharp.Prng.int prng n in
        Alcotest.(check bool) "independent symmetric"
          (Hb.independent h i j) (Hb.independent h j i);
        if Hb.independent h i j then begin
          Alcotest.(check bool) "independent excludes ordered" false
            (Hb.ordered h i j || Hb.ordered h j i);
          Alcotest.(check bool) "independent steps on distinct machines" true
            (Hb.machine_of h i <> Hb.machine_of h j)
        end
      done;
      (* program order: consecutive steps of one machine are always ordered *)
      let last_of = Hashtbl.create 16 in
      for i = 0 to n - 1 do
        let m = Hb.machine_of h i in
        (match Hashtbl.find_opt last_of m with
         | Some prev ->
           if not (Hb.ordered h prev i) then
             Alcotest.failf "program order violated: steps %d and %d of %d"
               prev i m
         | None -> ());
        Hashtbl.replace last_of m i
      done)
    [ 7L; 42L; 1234L ]

(* --- swap invariance on a recorded execution ---------------------------- *)

(* Segment a trace by Schedule entries (each segment is one scheduling
   choice plus the Bool/Int draws its step made), swap two consecutive
   segments whose steps the recorder proves independent, replay, and check:
   the canonical fingerprint is unchanged (same Mazurkiewicz trace) while
   the raw schedule fingerprint differs. *)
let segments trace =
  let segs = ref [] and cur = ref [] in
  List.iter
    (fun c ->
      match c with
      | Trace.Schedule _ ->
        if !cur <> [] then segs := List.rev !cur :: !segs;
        cur := [ c ]
      | Trace.Bool _ | Trace.Int _ -> cur := c :: !cur)
    (Trace.to_list trace);
  if !cur <> [] then segs := List.rev !cur :: !segs;
  List.rev !segs

let test_swap_invariance () =
  let h, result = run_vnext ~seed:5L in
  let segs = Array.of_list (segments result.R.choices) in
  (* segment k corresponds to hb step k: both enumerate scheduling points *)
  let swappable = ref None in
  let k = ref 0 in
  while !swappable = None && !k + 1 < Array.length segs do
    if Hb.independent h !k (!k + 1) then swappable := Some !k;
    incr k
  done;
  match !swappable with
  | None -> Alcotest.fail "no adjacent independent steps in 3000"
  | Some k ->
    let swapped = Array.copy segs in
    swapped.(k) <- segs.(k + 1);
    swapped.(k + 1) <- segs.(k);
    let trace' = Trace.of_list (List.concat (Array.to_list swapped)) in
    let h' = Hb.create () in
    let cfg =
      {
        R.max_steps = 3_000;
        liveness_grace = None;
        deadlock_is_bug = true;
        collect_log = false;
        coverage = None;
        hb = Some h';
        faults = Psharp.Fault.none;
        deadline = None;
        clock = None;
        scenario = None;
      }
    in
    let result' =
      R.execute cfg (Psharp.Replay_strategy.make trace')
        ~monitors:(Vnext.Testing_driver.monitors ())
        ~name:"Harness"
        (Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.none
           ~scenario:Vnext.Testing_driver.Fail_and_repair ())
    in
    (match result'.R.bug with
     | Some (Psharp.Error.Replay_divergence _) ->
       Alcotest.fail "swapped independent steps diverged on replay"
     | _ -> ());
    Alcotest.(check bool) "raw schedule fingerprints differ" true
      (Coverage.fingerprint result.R.choices
      <> Coverage.fingerprint result'.R.choices);
    Alcotest.(check bool) "canonical partial-order fingerprints agree" true
      (Hb.canonical_fingerprint h = Hb.canonical_fingerprint h')

(* --- the flat recorder against the slow reference ----------------------- *)

(* A random run is a list of (op, a, b) triples, interpreted so that every
   hook is called the way the runtime calls it: the root is created first,
   a child is always a fresh index created by the running machine, a
   delayed message is delivered at most once (possibly between steps), a
   machine never crashes itself. Creates are frequent so runs pass 8
   machines and the clock buffers grow. A query op compares every query
   mid-run; the production recorder is reused through [reset] from run
   to run, the reference is fresh each time. *)

let monitor_names = [| "Safety"; "Liveness"; "Progress" |]

(* clocks compare up to trailing zeros: only the components matter *)
let trim c =
  let n = ref (Array.length c) in
  while !n > 0 && c.(!n - 1) = 0 do decr n done;
  Array.sub c 0 !n

let agree h r =
  let n = Hb.steps h in
  if n <> Hb_ref.steps r then QCheck.Test.fail_reportf "steps %d vs %d" n (Hb_ref.steps r);
  for i = 0 to n - 1 do
    if Hb.machine_of h i <> Hb_ref.machine_of r i then
      QCheck.Test.fail_reportf "machine_of %d" i;
    if trim (Hb.clock_of h i) <> trim (Hb_ref.clock_of r i) then
      QCheck.Test.fail_reportf "clock_of %d" i;
    for j = 0 to n - 1 do
      if Hb.ordered h i j <> Hb_ref.ordered r i j then
        QCheck.Test.fail_reportf "ordered %d %d" i j;
      if Hb.independent h i j <> Hb_ref.independent r i j then
        QCheck.Test.fail_reportf "independent %d %d" i j
    done
  done;
  if Hb.happenings h <> Hb_ref.happenings r then
    QCheck.Test.fail_reportf "happenings %d vs %d" (Hb.happenings h)
      (Hb_ref.happenings r);
  for i = 0 to Hb.happenings h - 1 do
    let same =
      match (Hb.happening h i, Hb_ref.happening r i) with
      | Hb.Touch { target; actor }, Hb_ref.Touch { target = t'; actor = a' } ->
        target = t' && actor = a'
      | Hb.Notify { actor; monitor }, Hb_ref.Notify { actor = a'; monitor = m' } ->
        actor = a' && monitor = m'
      | _ -> false
    in
    if not same then QCheck.Test.fail_reportf "happening %d" i
  done;
  if Hb.canonical_fingerprint h <> Hb_ref.canonical_fingerprint r then
    QCheck.Test.fail_report "canonical_fingerprint";
  true

let replay_run h ops =
  let r = Hb_ref.create () in
  let both f g = f h; g r in
  both (Hb.on_create ~parent:(-1) ~child:0) (Hb_ref.on_create ~parent:(-1) ~child:0);
  let nm = ref 1 and actor = ref (-1) in
  let sent = ref [] and delayed = ref [] in
  let pick l k = List.nth l (k mod List.length l) in
  List.iter
    (fun (op, a, b) ->
      let target = a mod !nm in
      match op mod 12 with
      | 0 | 1 ->
        (* begin_step: a start, or the dequeue of a sent message *)
        let msg = if !sent = [] || b mod 3 = 0 then -1 else pick !sent b in
        actor := target;
        both (Hb.begin_step ~machine:target ~msg) (Hb_ref.begin_step ~machine:target ~msg)
      | _ when !actor < 0 -> ()
      | 2 | 3 ->
        let child = !nm in
        incr nm;
        both (Hb.on_create ~parent:!actor ~child) (Hb_ref.on_create ~parent:!actor ~child)
      | 4 ->
        let s = Hb.on_send h ~target in
        let s' = Hb_ref.on_send r ~target in
        if s <> s' then QCheck.Test.fail_reportf "stamp %d vs %d" s s';
        sent := s :: !sent
      | 5 ->
        let s = Hb.on_send_delayed h ~target in
        let s' = Hb_ref.on_send_delayed r ~target in
        if s <> s' then QCheck.Test.fail_reportf "delayed stamp %d vs %d" s s';
        delayed := (s, target) :: !delayed
      | 6 when !delayed <> [] ->
        let ((msg, target) as d) = pick !delayed b in
        delayed := List.filter (fun x -> x != d) !delayed;
        sent := msg :: !sent;
        both (Hb.on_delayed_delivery ~target ~msg) (Hb_ref.on_delayed_delivery ~target ~msg)
      | 6 | 7 -> both (Hb.on_touch ~target) (Hb_ref.on_touch ~target)
      | 8 when target <> !actor -> both (Hb.on_crash ~target) (Hb_ref.on_crash ~target)
      | 8 | 9 ->
        (* a fresh copy now and then: interning must not rely on identity *)
        let name = monitor_names.(b mod Array.length monitor_names) in
        let name = if b mod 5 = 0 then String.init (String.length name) (String.get name) else name in
        both (Hb.on_notify ~monitor:name) (Hb_ref.on_notify ~monitor:name)
      | 10 ->
        if b mod 2 = 0 then both (fun h -> Hb.on_bool h (a mod 2 = 0)) (fun r -> Hb_ref.on_bool r (a mod 2 = 0))
        else both (fun h -> Hb.on_int h b) (fun r -> Hb_ref.on_int r b)
      | _ -> ignore (agree h r))
    ops;
  agree h r

let prop_matches_reference =
  let open QCheck in
  let op = triple small_nat small_nat small_nat in
  Test.make ~count:1_000 ~name:"flat recorder matches the eager reference"
    (list_of_size Gen.(1 -- 3) (list_of_size Gen.(1 -- 250) op))
    (fun runs ->
      let h = Hb.create () in
      List.for_all
        (fun ops ->
          Hb.reset h;
          replay_run h ops)
        runs)

(* --- the two joins an edge log gets wrong --------------------------------- *)

(* A hand-written hook sequence, driven through both recorders. Stamps are
   handed out in send order from 0, so the sequences name them up front. *)
type op =
  | Create of int * int  (* parent, child *)
  | Begin of int * int  (* machine, msg *)
  | Send of int
  | Send_delayed of int
  | Deliver of int * int  (* target, msg *)
  | Notify of string

let drive ops =
  let h = Hb.create () and r = Hb_ref.create () in
  List.iter
    (function
      | Create (parent, child) ->
        Hb.on_create h ~parent ~child;
        Hb_ref.on_create r ~parent ~child
      | Begin (machine, msg) ->
        Hb.begin_step h ~machine ~msg;
        Hb_ref.begin_step r ~machine ~msg
      | Send target ->
        Alcotest.(check int) "stamp" (Hb_ref.on_send r ~target)
          (Hb.on_send h ~target)
      | Send_delayed target ->
        Alcotest.(check int) "stamp" (Hb_ref.on_send_delayed r ~target)
          (Hb.on_send_delayed h ~target)
      | Deliver (target, msg) ->
        Hb.on_delayed_delivery h ~target ~msg;
        Hb_ref.on_delayed_delivery r ~target ~msg
      | Notify monitor ->
        Hb.on_notify h ~monitor;
        Hb_ref.on_notify r ~monitor)
    ops;
  Alcotest.(check bool) "every query matches the reference" true (agree h r);
  h

let root = [ Create (-1, 0); Begin (0, -1); Create (0, 1); Create (0, 2); Create (0, 3) ]

(* Machine 3 enqueues into 1's inbox (step 1); machine 2's delayed message
   reaches the same inbox later (step 2, flush); machine 1 dequeues the
   delayed message first, the earlier one deferred (step 3). The delivery
   joins message and inbox both ways, so the dequeuer follows the earlier
   enqueuer; the canonical order then emits machine 3 before machine 1. *)
let test_delayed_delivery_two_way () =
  let h =
    drive
      (root
      @ [ Begin (3, -1); Send 1; Begin (2, -1); Send_delayed 1; Deliver (1, 1); Begin (1, 1) ])
  in
  Alcotest.(check bool) "dequeuer after the delayed sender" true (Hb.ordered h 2 3);
  Alcotest.(check bool) "dequeuer after the inbox's earlier enqueuer" true
    (Hb.ordered h 1 3);
  Alcotest.(check int) "the enqueuer's step is in the dequeuer's clock" 1
    (Hb.clock_of h 3).(3)

(* Machine 3 notifies a monitor (step 1). Machine 1 sends to 2, then
   notifies the same monitor (step 2), absorbing step 1 after the message
   was stamped. The receiver (step 3) follows the sender but not step 1. *)
let test_send_then_absorb () =
  let h =
    drive
      (root
      @ [ Begin (3, -1); Notify "Safety"; Begin (1, -1); Send 2; Notify "Safety"; Begin (2, 0) ])
  in
  Alcotest.(check bool) "the absorbed step precedes the sender's step" true
    (Hb.ordered h 1 2);
  Alcotest.(check bool) "receiver after the sender" true (Hb.ordered h 2 3);
  Alcotest.(check bool) "absorbed step not before the receiver" false
    (Hb.ordered h 1 3);
  Alcotest.(check int) "the receiver's clock misses it" 0 (Hb.clock_of h 3).(3)

let suite =
  [
    Alcotest.test_case "delivery merge" `Quick test_delivery_merge;
    Alcotest.test_case "ordered reflexive / independent irreflexive" `Quick
      test_ordered_reflexive_independent_irreflexive;
    Alcotest.test_case "crash merge" `Quick test_crash_merge;
    Alcotest.test_case "monitor notify total order" `Quick
      test_notify_total_order;
    Alcotest.test_case "canonical fingerprint invariance" `Quick
      test_canonical_fingerprint_linearization_invariant;
    Alcotest.test_case "sampled vnext executions" `Slow test_sampled_properties;
    Alcotest.test_case "swap-adjacent-independent invariance" `Slow
      test_swap_invariance;
    Alcotest.test_case "delayed delivery joins both ways" `Quick
      test_delayed_delivery_two_way;
    Alcotest.test_case "send, then absorb in the same step" `Quick
      test_send_then_absorb;
    QCheck_alcotest.to_alcotest prop_matches_reference;
  ]
