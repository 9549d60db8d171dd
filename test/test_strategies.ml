(* Scheduling strategies: determinism, coverage, replay, DFS exhaustion. *)

module S = Psharp.Strategy
module Trace = Psharp.Trace

let get_fresh factory ~iteration =
  match factory.S.fresh ~iteration with
  | Some s -> s
  | None -> Alcotest.fail "strategy exhausted unexpectedly"

let drive strategy n =
  List.init n (fun step ->
      strategy.S.next_schedule ~enabled:[| 0; 1; 2 |] ~n:3 ~step)

let test_random_deterministic_per_seed () =
  let f1 = Psharp.Random_strategy.factory ~seed:5L in
  let f2 = Psharp.Random_strategy.factory ~seed:5L in
  let a = drive (get_fresh f1 ~iteration:0) 50 in
  let b = drive (get_fresh f2 ~iteration:0) 50 in
  Alcotest.(check (list int)) "same seed, same schedule" a b

let test_random_iterations_differ () =
  let f = Psharp.Random_strategy.factory ~seed:5L in
  let a = drive (get_fresh f ~iteration:0) 50 in
  let b = drive (get_fresh f ~iteration:1) 50 in
  Alcotest.(check bool) "iterations differ" true (a <> b)

let test_random_covers_all_machines () =
  let f = Psharp.Random_strategy.factory ~seed:0L in
  let picks = drive (get_fresh f ~iteration:0) 200 in
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "machine %d scheduled" m)
        true (List.mem m picks))
    [ 0; 1; 2 ]

let test_random_respects_enabled () =
  let s = get_fresh (Psharp.Random_strategy.factory ~seed:9L) ~iteration:0 in
  for step = 0 to 100 do
    let pick = s.S.next_schedule ~enabled:[| 4; 7 |] ~n:2 ~step in
    Alcotest.(check bool) "member of enabled" true (pick = 4 || pick = 7)
  done

let test_pct_prefers_priority () =
  (* Without hitting a change point, PCT must repeatedly pick the same
     (highest-priority) machine for a fixed enabled set. *)
  let s =
    get_fresh
      (Psharp.Pct_strategy.factory ~seed:1L ~change_points:0 ~max_steps:100 ())
      ~iteration:0
  in
  let picks = drive s 20 in
  match picks with
  | first :: rest ->
    Alcotest.(check bool) "stable priority" true
      (List.for_all (fun p -> p = first) rest)
  | [] -> Alcotest.fail "no picks"

let test_pct_change_points_change_schedule () =
  (* With many change points the winner must change at least once. *)
  let s =
    get_fresh
      (Psharp.Pct_strategy.factory ~seed:1L ~change_points:50 ~max_steps:60 ())
      ~iteration:0
  in
  let picks = drive s 60 in
  let distinct = List.sort_uniq compare picks in
  Alcotest.(check bool) "schedule not constant" true (List.length distinct > 1)

(* A negative change-point budget used to hang [fresh]: the change-step
   sampler counted down from it and never reached zero. A negative step
   bound is rejected with it, up front rather than at the first [fresh]. *)
let test_pct_rejects_negative_change_points () =
  let negative = Invalid_argument "Pct_strategy.factory: negative change_points or max_steps" in
  Alcotest.check_raises "factory rejects change_points = -1" negative (fun () ->
      ignore (Psharp.Pct_strategy.factory ~seed:1L ~change_points:(-1) ~max_steps:50 ()));
  Alcotest.check_raises "factory rejects max_steps = -1" negative (fun () ->
      ignore (Psharp.Pct_strategy.factory ~seed:1L ~change_points:2 ~max_steps:(-1) ()));
  let cfg =
    {
      Psharp.Engine.default_config with
      strategy = Psharp.Engine.Pct { change_points = -1 };
      max_executions = 1;
      max_steps = 50;
    }
  in
  Alcotest.check_raises "Engine.run rejects Pct { change_points = -1 }" negative
    (fun () -> ignore (Psharp.Engine.run cfg (fun _ -> ())))

(* Seed 347415, iteration 0, draws the same initial priority (367,913)
   for machines 0 and 1; the first of equal priorities must win, as it
   does in the reference. Random inputs almost never tie. *)
let test_pct_tie_goes_to_lower_index () =
  let fast =
    get_fresh
      (Psharp.Pct_strategy.factory ~seed:347415L ~change_points:0 ~max_steps:10 ())
      ~iteration:0
  in
  let slow = Pct_ref.make ~seed:347415L ~change_points:0 ~max_steps:10 ~iteration:0 in
  Alcotest.(check int) "reference picks machine 0" 0
    (slow.S.next_schedule ~enabled:[| 0; 1 |] ~n:2 ~step:0);
  Alcotest.(check int) "pct picks machine 0" 0
    (fast.S.next_schedule ~enabled:[| 0; 1 |] ~n:2 ~step:0)

(* One call on a PCT strategy: a pick over a sorted enabled prefix, or a
   [nondet] draw from the same stream. *)
type pct_call = Pick of int array | Bool | Int of int

(* The tight scan against [Pct_ref], the scheduler as first written: for
   random seeds, budgets and call sequences every answer must agree.
   Each sequence makes [max_steps + 5] picks, [step] rising by one per
   pick as the runtime passes it, so every change step is reached; up to
   two [nondet] draws follow each pick. Small step bounds with a large
   budget make every step a change point (step 0 and [max_steps - 1]
   included); single-machine picks demote undrawn machines; machine
   indices reach 40, so the priority table grows. *)
let prop_pct_matches_reference =
  let open QCheck in
  let gen =
    Gen.(
      let* seed = map Int64.of_int nat in
      let* iteration = 0 -- 5 in
      let* max_steps = frequency [ (1, 1 -- 12); (2, 1 -- 300) ] in
      let* change_points = 0 -- 50 in
      let* machines = 1 -- 40 in
      let pick =
        let* size = frequency [ (1, return 1); (3, 2 -- 14) ] in
        map
          (fun ms -> Pick (Array.of_list (List.sort_uniq compare ms)))
          (list_repeat size (0 -- (machines - 1)))
      in
      let draw = frequency [ (1, return Bool); (1, map (fun b -> Int b) (1 -- 9)) ] in
      let* calls =
        list_repeat (max_steps + 5)
          (map2 (fun p ds -> p :: ds) pick (list_size (0 -- 2) draw))
      in
      return (seed, iteration, change_points, max_steps, List.concat calls))
  in
  let print (seed, iteration, change_points, max_steps, calls) =
    Printf.sprintf "seed %Ld iteration %d change_points %d max_steps %d calls %d"
      seed iteration change_points max_steps (List.length calls)
  in
  Test.make ~count:300 ~name:"pct matches the reference scheduler"
    (make ~print gen)
    (fun (seed, iteration, change_points, max_steps, calls) ->
      let fast =
        get_fresh
          (Psharp.Pct_strategy.factory ~seed ~change_points ~max_steps ())
          ~iteration
      in
      let slow = Pct_ref.make ~seed ~change_points ~max_steps ~iteration in
      let step = ref 0 in
      List.for_all
        (function
          | Pick enabled ->
            let n = Array.length enabled and step' = !step in
            incr step;
            fast.S.next_schedule ~enabled ~n ~step:step'
            = slow.S.next_schedule ~enabled ~n ~step:step'
          | Bool -> fast.S.next_bool ~step:!step = slow.S.next_bool ~step:!step
          | Int bound ->
            fast.S.next_int ~bound ~step:!step
            = slow.S.next_int ~bound ~step:!step)
        calls)

let test_replay_feeds_back () =
  let trace =
    Trace.of_list [ Trace.Schedule 2; Trace.Bool true; Trace.Int 5 ]
  in
  let s = get_fresh (Psharp.Replay_strategy.factory trace) ~iteration:0 in
  Alcotest.(check int) "schedule" 2
    (s.S.next_schedule ~enabled:[| 0; 1; 2 |] ~n:3 ~step:0);
  Alcotest.(check bool) "bool" true (s.S.next_bool ~step:1);
  Alcotest.(check int) "int" 5 (s.S.next_int ~bound:10 ~step:2)

let test_replay_single_iteration () =
  let f = Psharp.Replay_strategy.factory Trace.empty in
  Alcotest.(check bool) "first iteration available" true
    (f.S.fresh ~iteration:0 <> None);
  Alcotest.(check bool) "second iteration exhausted" true
    (f.S.fresh ~iteration:1 = None)

let test_replay_divergence_raises () =
  let trace = Trace.of_list [ Trace.Schedule 7 ] in
  let s = get_fresh (Psharp.Replay_strategy.factory trace) ~iteration:0 in
  Alcotest.(check bool) "divergence raises Bug" true
    (try
       ignore (s.S.next_schedule ~enabled:[| 0; 1 |] ~n:2 ~step:0);
       false
     with Psharp.Error.Bug (Psharp.Error.Replay_divergence _) -> true)

let test_dfs_enumerates_booleans () =
  (* A "program" with two boolean choices: DFS must enumerate all four
     outcomes, then exhaust. *)
  let f = Psharp.Dfs_strategy.factory () in
  let outcomes = ref [] in
  let rec go iteration =
    match f.S.fresh ~iteration with
    | None -> ()
    | Some s ->
      let a = s.S.next_bool ~step:0 in
      let b = s.S.next_bool ~step:1 in
      outcomes := (a, b) :: !outcomes;
      go (iteration + 1)
  in
  go 0;
  let sorted = List.sort_uniq compare !outcomes in
  Alcotest.(check int) "four distinct outcomes" 4 (List.length sorted);
  Alcotest.(check int) "exactly four executions" 4 (List.length !outcomes)

let test_dfs_enumerates_schedules () =
  (* Two scheduling choices over two machines: 4 paths. *)
  let f = Psharp.Dfs_strategy.factory () in
  let outcomes = ref [] in
  let rec go iteration =
    match f.S.fresh ~iteration with
    | None -> ()
    | Some s ->
      let a = s.S.next_schedule ~enabled:[| 0; 1 |] ~n:2 ~step:0 in
      let b = s.S.next_schedule ~enabled:[| 0; 1 |] ~n:2 ~step:1 in
      outcomes := (a, b) :: !outcomes;
      go (iteration + 1)
  in
  go 0;
  Alcotest.(check int) "four paths" 4 (List.length (List.sort_uniq compare !outcomes))

let test_dfs_int_cap () =
  let f = Psharp.Dfs_strategy.factory ~int_cap:2 () in
  let outcomes = ref [] in
  let rec go iteration =
    match f.S.fresh ~iteration with
    | None -> ()
    | Some s ->
      outcomes := s.S.next_int ~bound:100 ~step:0 :: !outcomes;
      go (iteration + 1)
  in
  go 0;
  Alcotest.(check (list int)) "capped enumeration" [ 0; 1 ]
    (List.sort compare !outcomes)

let suite =
  [
    Alcotest.test_case "random deterministic per seed" `Quick
      test_random_deterministic_per_seed;
    Alcotest.test_case "random iterations differ" `Quick
      test_random_iterations_differ;
    Alcotest.test_case "random covers machines" `Quick
      test_random_covers_all_machines;
    Alcotest.test_case "random respects enabled set" `Quick
      test_random_respects_enabled;
    Alcotest.test_case "pct stable without change points" `Quick
      test_pct_prefers_priority;
    Alcotest.test_case "pct change points take effect" `Quick
      test_pct_change_points_change_schedule;
    Alcotest.test_case "pct rejects negative change points" `Quick
      test_pct_rejects_negative_change_points;
    QCheck_alcotest.to_alcotest prop_pct_matches_reference;
    Alcotest.test_case "pct tie goes to the lower index" `Quick
      test_pct_tie_goes_to_lower_index;
    Alcotest.test_case "replay feeds back" `Quick test_replay_feeds_back;
    Alcotest.test_case "replay single iteration" `Quick
      test_replay_single_iteration;
    Alcotest.test_case "replay divergence" `Quick test_replay_divergence_raises;
    Alcotest.test_case "dfs enumerates booleans" `Quick
      test_dfs_enumerates_booleans;
    Alcotest.test_case "dfs enumerates schedules" `Quick
      test_dfs_enumerates_schedules;
    Alcotest.test_case "dfs int cap" `Quick test_dfs_int_cap;
  ]
