(* Unit and property tests for the SplitMix64 generator. *)

module Prng = Psharp.Prng

let test_deterministic () =
  let a = Prng.create ~seed:42L and b = Prng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_seed_sensitivity () =
  let a = Prng.create ~seed:1L and b = Prng.create ~seed:2L in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  Alcotest.(check bool) "streams differ" true !differs

let test_known_value () =
  (* SplitMix64 with seed 0: published first output. *)
  let g = Prng.create ~seed:0L in
  Alcotest.(check int64) "first output" 0xE220A8397B1DCDAFL (Prng.next_int64 g)

let test_copy_independent () =
  let a = Prng.create ~seed:7L in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  Alcotest.(check int64) "copy continues identically" (Prng.next_int64 a)
    (Prng.next_int64 b);
  ignore (Prng.next_int64 a);
  (* advancing [a] further must not affect [b] *)
  let before = Prng.next_int64 b in
  let b2 = Prng.copy b in
  Alcotest.(check int64) "copy isolated" (Prng.next_int64 b) (Prng.next_int64 b2);
  ignore before

let test_split_differs () =
  let a = Prng.create ~seed:3L in
  let b = Prng.split a in
  Alcotest.(check bool) "split stream differs" true
    (Prng.next_int64 a <> Prng.next_int64 b)

let test_int_bounds_invalid () =
  let g = Prng.create ~seed:0L in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g 0));
  Alcotest.check_raises "negative bound"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int g (-3)))

let test_pick_empty () =
  let g = Prng.create ~seed:0L in
  Alcotest.check_raises "empty list" (Invalid_argument "Prng.pick: empty list")
    (fun () -> ignore (Prng.pick g []))

let test_shuffle_permutation () =
  let g = Prng.create ~seed:11L in
  let xs = Array.init 50 Fun.id in
  Prng.shuffle g xs;
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

(* Stream pin: digests of the first 10,000 raw outputs per seed, then
   100 outputs each from the generator, a [copy] and a [split] of it, and
   a tail of [int], [bool] and [float] draws. Recorded from the boxed
   [mutable state : int64] implementation; any change to how the state is
   stored must keep every stream, or every schedule the strategies draw
   moves with it. *)
let stream_digest seed =
  let b = Buffer.create (1 lsl 18) in
  let out g n =
    for _ = 1 to n do
      Buffer.add_string b (Printf.sprintf "%016Lx\n" (Prng.next_int64 g))
    done
  in
  let g = Prng.create ~seed in
  out g 10_000;
  let c = Prng.copy g in
  let s = Prng.split g in
  out g 100;
  out c 100;
  out s 100;
  for _ = 1 to 1000 do Buffer.add_string b (string_of_int (Prng.int g 7)) done;
  for _ = 1 to 1000 do Buffer.add_char b (if Prng.bool g then '1' else '0') done;
  for _ = 1 to 100 do
    Buffer.add_string b (Printf.sprintf "%h\n" (Prng.float g 1.0))
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_stream_pins () =
  List.iter
    (fun (seed, digest) ->
      Alcotest.(check string) (Printf.sprintf "stream of seed %Ld" seed) digest
        (stream_digest seed))
    [
      (0L, "d959ead908b8ff624e7b11b1ac1e1d53");
      (1L, "6031581ab2bf2a7845260d97dedee8c4");
      (42L, "1ce42db23c9233492c09f40ab5a0a9df");
      (-1L, "8f3cbd449b55c3a9c92c98f01227ebc0");
      (0x9E3779B97F4A7C15L, "400016bdfeb3266e51e91916e8790514");
      (Int64.min_int, "82951023f5763a0ed92f96a273f2b08d");
    ]

let prop_int_in_bounds =
  QCheck.Test.make ~name:"Prng.int in [0, bound)" ~count:500
    QCheck.(pair int64 (int_range 1 10_000))
    (fun (seed, bound) ->
      let g = Prng.create ~seed in
      let v = Prng.int g bound in
      v >= 0 && v < bound)

let prop_float_in_bounds =
  QCheck.Test.make ~name:"Prng.float in [0, bound)" ~count:500
    QCheck.(pair int64 (float_bound_exclusive 1_000.))
    (fun (seed, bound) ->
      QCheck.assume (bound > 0.);
      let g = Prng.create ~seed in
      let v = Prng.float g bound in
      v >= 0. && v < bound)

let prop_bool_both_values =
  QCheck.Test.make ~name:"Prng.bool not constant over 64 draws" ~count:100
    QCheck.int64 (fun seed ->
      let g = Prng.create ~seed in
      let seen_true = ref false and seen_false = ref false in
      for _ = 1 to 64 do
        if Prng.bool g then seen_true := true else seen_false := true
      done;
      !seen_true && !seen_false)

let prop_pick_member =
  QCheck.Test.make ~name:"Prng.pick returns a member" ~count:300
    QCheck.(pair int64 (list_of_size Gen.(1 -- 20) small_int))
    (fun (seed, xs) ->
      QCheck.assume (xs <> []);
      let g = Prng.create ~seed in
      List.mem (Prng.pick g xs) xs)

let suite =
  [
    Alcotest.test_case "deterministic stream" `Quick test_deterministic;
    Alcotest.test_case "seed sensitivity" `Quick test_seed_sensitivity;
    Alcotest.test_case "known SplitMix64 value" `Quick test_known_value;
    Alcotest.test_case "copy is independent" `Quick test_copy_independent;
    Alcotest.test_case "split differs" `Quick test_split_differs;
    Alcotest.test_case "int bound validation" `Quick test_int_bounds_invalid;
    Alcotest.test_case "pick empty list" `Quick test_pick_empty;
    Alcotest.test_case "shuffle is a permutation" `Quick test_shuffle_permutation;
    Alcotest.test_case "pinned streams, copies and splits" `Quick
      test_stream_pins;
    QCheck_alcotest.to_alcotest prop_int_in_bounds;
    QCheck_alcotest.to_alcotest prop_float_in_bounds;
    QCheck_alcotest.to_alcotest prop_bool_both_values;
    QCheck_alcotest.to_alcotest prop_pick_member;
  ]
