(* Trace serialization and builder tests. *)

module Trace = Psharp.Trace

let sample =
  Trace.of_list
    [ Trace.Schedule 0; Trace.Bool true; Trace.Int 7; Trace.Schedule 3;
      Trace.Bool false ]

let test_roundtrip () =
  let s = Trace.to_string sample in
  Alcotest.(check bool) "roundtrip equal" true
    (Trace.equal sample (Trace.of_string s))

let test_empty_roundtrip () =
  Alcotest.(check bool) "empty roundtrip" true
    (Trace.equal Trace.empty (Trace.of_string (Trace.to_string Trace.empty)))

let test_length () =
  Alcotest.(check int) "length" 5 (Trace.length sample);
  Alcotest.(check int) "empty length" 0 (Trace.length Trace.empty)

let test_malformed () =
  Alcotest.(check bool) "malformed raises" true
    (try
       ignore (Trace.of_string "x:1");
       false
     with Failure _ -> true)

let test_builder () =
  let b = Trace.Builder.create () in
  Trace.Builder.add_schedule b 1;
  Trace.Builder.add_bool b false;
  (* values inside and outside the interned range *)
  Trace.Builder.add_int b 7;
  Trace.Builder.add_schedule b 300;
  Trace.Builder.add_int b (-2);
  Trace.Builder.add_bool b true;
  Alcotest.(check int) "builder length" 6 (Trace.Builder.length b);
  let t = Trace.Builder.finish b in
  Alcotest.(check bool) "builder order" true
    (Trace.to_list t
    = [ Trace.Schedule 1; Trace.Bool false; Trace.Int 7; Trace.Schedule 300;
        Trace.Int (-2); Trace.Bool true ])

(* Values at the edges of the packed encoding: below and above the
   interned range, negative, and the two ends of [int]. *)
let edges =
  [ Trace.Int max_int; Trace.Int min_int; Trace.Schedule 300; Trace.Int (-2);
    Trace.Schedule max_int; Trace.Schedule min_int; Trace.Schedule 0;
    Trace.Int 255; Trace.Int 256; Trace.Bool true; Trace.Int (1 lsl 60);
    Trace.Int (-(1 lsl 60)); Trace.Int ((1 lsl 60) - 1);
    Trace.Schedule (-(1 lsl 60) - 1) ]

let record choices =
  let b = Trace.Builder.create () in
  List.iter
    (function
      | Trace.Schedule i -> Trace.Builder.add_schedule b i
      | Trace.Bool v -> Trace.Builder.add_bool b v
      | Trace.Int i -> Trace.Builder.add_int b i)
    choices;
  Trace.Builder.finish b

let test_edge_values () =
  let t = Trace.of_list edges in
  Alcotest.(check bool) "of_list/to_list" true (Trace.to_list t = edges);
  Alcotest.(check bool) "builder = of_list" true (Trace.equal (record edges) t);
  Alcotest.(check bool) "fold" true
    (List.rev (Trace.fold (fun acc c -> c :: acc) [] t) = edges);
  Alcotest.(check bool) "get" true
    (List.init (Trace.length t) (Trace.get t) = edges);
  Alcotest.(check bool) "text round trip" true
    (Trace.equal t (Trace.of_string (Trace.to_string t)));
  Alcotest.(check string) "text format" "i:4611686018427387903"
    (List.hd (String.split_on_char '\n' (Trace.to_string t)));
  Alcotest.(check bool) "equal tells max_int from min_int" false
    (Trace.equal (Trace.of_list [ Trace.Int max_int ])
       (Trace.of_list [ Trace.Int min_int ]));
  (* once the wide values are cut away the trace equals one built without
     them *)
  Alcotest.(check bool) "sub drops escapes" true
    (Trace.equal (Trace.sub t 3 1) (Trace.of_list [ Trace.Int (-2) ]))

(* A finished trace is a copy: later executions in the same domain record
   into the same buffer without touching it. *)
let test_buffer_reuse () =
  let pattern k n = List.init n (fun i -> Trace.Schedule (i + k)) in
  (* from 1 to 300 choices: short traces, and traces that fill a
     64- or 128-slot buffer exactly *)
  let traces =
    List.map (fun n -> (pattern n n, record (pattern n n))) [ 1; 64; 128; 300 ]
  in
  for round = 1 to 3 do
    ignore (record (pattern (1000 * round) (100 * round)))
  done;
  List.iter
    (fun (choices, t) ->
      Alcotest.(check bool) "finished trace unchanged" true
        (Trace.to_list t = choices))
    traces;
  (* two builders live at once in one domain *)
  let a = Trace.Builder.create () and b = Trace.Builder.create () in
  for i = 0 to 99 do
    Trace.Builder.add_schedule a i;
    Trace.Builder.add_int b (-i)
  done;
  let ta = Trace.Builder.finish a and tb = Trace.Builder.finish b in
  Alcotest.(check bool) "first live builder" true
    (Trace.to_list ta = List.init 100 (fun i -> Trace.Schedule i));
  Alcotest.(check bool) "second live builder" true
    (Trace.to_list tb = List.init 100 (fun i -> Trace.Int (-i)));
  (* the same through the runtime *)
  let entry = Catalog.Bug_catalog.find "ExampleDuplicateReplicaAck" in
  let execute seed =
    let strategy =
      match (Psharp.Random_strategy.factory ~seed).Psharp.Strategy.fresh
              ~iteration:0
      with
      | Some s -> s
      | None -> Alcotest.fail "random factory returned no strategy"
    in
    (Psharp.Runtime.execute Psharp.Runtime.default_config strategy
       ~monitors:(entry.Catalog.Bug_catalog.monitors ()) ~name:"Harness"
       entry.Catalog.Bug_catalog.fixed_harness)
      .Psharp.Runtime.choices
  in
  let t = execute 1L in
  let recorded = Trace.to_list t in
  for seed = 2 to 6 do
    ignore (execute (Int64.of_int seed))
  done;
  Alcotest.(check bool) "executed trace unchanged" true
    (Trace.to_list t = recorded);
  Alcotest.(check bool) "same seed, same trace" true
    (Trace.equal t (execute 1L))

(* Builders in different domains never share a buffer: each domain
   records its own pattern many times over while the other does too. *)
let test_two_domains () =
  let pattern d n =
    List.init n (fun i ->
        match i mod 3 with
        | 0 -> Trace.Schedule ((d * 1000) + i)
        | 1 -> Trace.Bool (d = 1)
        | _ -> Trace.Int (d - i))
  in
  let worker d () =
    List.for_all
      (fun n -> Trace.to_list (record (pattern d n)) = pattern d n)
      (List.init 300 (fun i -> 1 + (i * 37 mod 500)))
  in
  let other = Domain.spawn (worker 1) in
  let mine = worker 0 () in
  Alcotest.(check bool) "main domain's traces" true mine;
  Alcotest.(check bool) "spawned domain's traces" true (Domain.join other)

let test_save_load () =
  let path = Filename.temp_file "psharp_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save ~path sample;
      Alcotest.(check bool) "save/load" true
        (Trace.equal sample (Trace.load ~path)))

let rejects label s =
  Alcotest.(check bool) label true
    (try
       ignore (Trace.of_string s);
       false
     with Failure _ -> true)

let test_strict_parsing () =
  (* [save] appends exactly one newline; accept that and nothing looser. *)
  Alcotest.(check bool) "one trailing newline accepted" true
    (Trace.equal sample (Trace.of_string (Trace.to_string sample ^ "\n")));
  rejects "two trailing newlines rejected" (Trace.to_string sample ^ "\n\n");
  rejects "interior blank line rejected" "s:0\n\nb:1";
  rejects "blank-only input rejected" "\n";
  rejects "non-canonical int spelling rejected" "i:0x10";
  rejects "leading zero rejected" "s:01";
  rejects "trailing whitespace rejected" "s:0 ";
  rejects "negative bool rejected" "b:2"

(* Small values (the ones executions record) and the whole [int] range. *)
let value_gen = QCheck.Gen.(oneof [ int_range (-2) 1_000; int ])

let choice_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Trace.Schedule i) value_gen;
        map (fun b -> Trace.Bool b) bool;
        map (fun i -> Trace.Int i) value_gen;
      ])

let choices_arb = QCheck.make QCheck.Gen.(list_size (0 -- 50) choice_gen)

let prop_builder =
  QCheck.Test.make ~name:"builder, of_list, fold and get agree" ~count:300
    choices_arb (fun choices ->
      let t = Trace.of_list choices in
      Trace.equal (record choices) t
      && Trace.to_list t = choices
      && Trace.length t = List.length choices
      && List.rev (Trace.fold (fun acc c -> c :: acc) [] t) = choices
      && List.init (Trace.length t) (Trace.get t) = choices)

(* [sub], [append] and [map_range] against the same operations on lists;
   [equal] must hold exactly when the choice lists are equal, so the
   results are compared with both. *)
let prop_slices =
  QCheck.Test.make ~name:"sub, append and map_range match lists" ~count:300
    (QCheck.pair choices_arb choices_arb) (fun (a, b) ->
      let ta = Trace.of_list a and tb = Trace.of_list b in
      let n = List.length a in
      let pos = if n = 0 then 0 else Hashtbl.hash b mod n in
      let len = if n = 0 then 0 else (Hashtbl.hash a mod (n - pos)) + 1 in
      let len = min len (n - pos) in
      let in_range i = i >= pos && i < pos + len in
      let flip = function
        | Trace.Schedule i -> Trace.Int i
        | Trace.Int i -> Trace.Schedule i
        | Trace.Bool v -> Trace.Bool (not v)
      in
      let same t l = Trace.to_list t = l && Trace.equal t (Trace.of_list l) in
      same (Trace.sub ta pos len) (List.filteri (fun i _ -> in_range i) a)
      && same (Trace.append ta tb) (a @ b)
      && same
           (Trace.map_range ta ~pos ~len flip)
           (List.mapi (fun i c -> if in_range i then flip c else c) a)
      && Trace.equal ta tb = (a = b))

let prop_roundtrip =
  QCheck.Test.make ~name:"trace to_string/of_string roundtrip" ~count:300
    choices_arb
    (fun choices ->
      let t = Trace.of_list choices in
      Trace.equal t (Trace.of_string (Trace.to_string t)))

let suite =
  [
    Alcotest.test_case "roundtrip" `Quick test_roundtrip;
    Alcotest.test_case "empty roundtrip" `Quick test_empty_roundtrip;
    Alcotest.test_case "length" `Quick test_length;
    Alcotest.test_case "malformed input" `Quick test_malformed;
    Alcotest.test_case "strict parsing" `Quick test_strict_parsing;
    Alcotest.test_case "builder" `Quick test_builder;
    Alcotest.test_case "edge values" `Quick test_edge_values;
    Alcotest.test_case "finished traces survive buffer reuse" `Quick
      test_buffer_reuse;
    Alcotest.test_case "two domains record their own traces" `Quick
      test_two_domains;
    Alcotest.test_case "save/load file" `Quick test_save_load;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    QCheck_alcotest.to_alcotest prop_builder;
    QCheck_alcotest.to_alcotest prop_slices;
  ]
