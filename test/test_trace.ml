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

let choice_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Trace.Schedule i) (int_range 0 1_000);
        map (fun b -> Trace.Bool b) bool;
        map (fun i -> Trace.Int i) (int_range 0 1_000);
      ])

let prop_roundtrip =
  QCheck.Test.make ~name:"trace to_string/of_string roundtrip" ~count:300
    (QCheck.make QCheck.Gen.(list_size (0 -- 50) choice_gen))
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
    Alcotest.test_case "save/load file" `Quick test_save_load;
    QCheck_alcotest.to_alcotest prop_roundtrip;
  ]
