(* Additional substrate coverage: lossy-network robustness for vNext,
   table-type algebra, workload plumbing, and reference-table properties. *)

module E = Psharp.Engine
module Error = Psharp.Error
module T = Chaintable.Table_types
module F0 = Chaintable.Filter0
module Rt = Chaintable.Reference_table

(* --- vNext under a lossy network ------------------------------------------ *)

let test_vnext_fixed_safe_under_message_loss () =
  (* Message drops are controlled nondeterminism, so the scheduler can act
     as an adversary that drops every repair message — liveness is
     legitimately unachievable under unfair loss, and the monitor may
     fire. What the fixed system must never produce under loss is a
     safety-class failure (assertion, unhandled event, crash, deadlock). *)
  let cfg =
    {
      E.default_config with
      max_executions = 400;
      max_steps = 4_000;
      seed = 5L;
    }
  in
  let rec hunt_safety iteration =
    if iteration >= 5 then ()
    else
      match
        E.run
          ~monitors:(fun () -> Vnext.Testing_driver.monitors ())
          { cfg with seed = Int64.of_int (iteration + 1) }
          (Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.none
             ~lossy_network:true
             ~scenario:Vnext.Testing_driver.Fail_and_repair ())
      with
      | E.No_bug _ -> hunt_safety (iteration + 1)
      | E.Bug_found ({ Error.kind = Error.Liveness_violation _; _ }, _) ->
        (* adversarial starvation: allowed *)
        hunt_safety (iteration + 1)
      | E.Bug_found (r, _) ->
        Alcotest.failf "lossy network broke safety: %s"
          (Error.kind_to_string r.Error.kind)
  in
  hunt_safety 0

let test_vnext_bug_found_with_loss () =
  let cfg =
    {
      E.default_config with
      max_executions = 4_000;
      max_steps = 3_000;
      seed = 5L;
    }
  in
  match
    E.run
      ~monitors:(fun () -> Vnext.Testing_driver.monitors ())
      cfg
      (Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.liveness_bug
         ~lossy_network:true ~scenario:Vnext.Testing_driver.Fail_and_repair ())
  with
  | E.Bug_found (r, _) -> begin
    match r.Error.kind with
    | Error.Liveness_violation _ -> ()
    | k -> Alcotest.failf "wrong kind: %s" (Error.kind_to_string k)
  end
  | E.No_bug _ -> Alcotest.fail "bug not found under message loss"

(* --- Table types ------------------------------------------------------------ *)

let test_norm_props_last_wins () =
  Alcotest.(check (list (pair string string)))
    "dedup + sort"
    [ ("a", "2"); ("b", "1") ]
    (T.norm_props [ ("b", "1"); ("a", "1"); ("a", "2") ])

(* The Hashtbl normaliser [T.norm_props] used to be: the slow reference
   its list version is checked against. *)
let norm_props_ref props =
  let tbl = Hashtbl.create 8 in
  List.iter (fun (name, v) -> Hashtbl.replace tbl name v) props;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Few names and values, so most lists repeat a name, and some are
   already normal (the fast path). *)
let prop_norm_props_reference =
  let open QCheck in
  let entry =
    Gen.(pair (map (Printf.sprintf "p%d") (int_range 0 5))
           (map string_of_int (int_range 0 9)))
  in
  Test.make ~name:"norm_props = Hashtbl reference" ~count:500
    (make
       ~print:Print.(list (pair string string))
       Gen.(list_size (0 -- 12) entry))
    (fun props ->
      let expected = norm_props_ref props in
      T.norm_props props = expected && T.norm_props expected = expected)

let test_merge_props () =
  Alcotest.(check (list (pair string string)))
    "update wins"
    [ ("a", "9"); ("b", "1"); ("c", "3") ]
    (T.merge_props ~base:[ ("a", "1"); ("b", "1") ]
       ~update:[ ("a", "9"); ("c", "3") ])

let test_key_compare () =
  let a = T.key "P" "a" and b = T.key "P" "b" and q = T.key "Q" "a" in
  Alcotest.(check bool) "rk order" true (T.compare_key a b < 0);
  Alcotest.(check bool) "pk dominates" true (T.compare_key b q < 0);
  Alcotest.(check int) "reflexive" 0 (T.compare_key a a)

let test_outcome_equivalence () =
  let row etag props = { T.key = T.key "P" "a"; props; etag } in
  Alcotest.(check bool) "rows equal modulo etag" true
    (T.outcome_equivalent
       (T.Row (Some (row 1 [ ("v", "1") ])))
       (T.Row (Some (row 99 [ ("v", "1") ]))));
  Alcotest.(check bool) "props differ" false
    (T.outcome_equivalent
       (T.Row (Some (row 1 [ ("v", "1") ])))
       (T.Row (Some (row 1 [ ("v", "2") ]))));
  Alcotest.(check bool) "ok vs error" false
    (T.outcome_equivalent
       (T.Mutated (Ok { T.new_etag = None }))
       (T.Mutated (Error T.Conflict)));
  Alcotest.(check bool) "same error" true
    (T.outcome_equivalent
       (T.Mutated (Error T.Not_found))
       (T.Mutated (Error T.Not_found)));
  Alcotest.(check bool) "rows length mismatch" false
    (T.outcome_equivalent (T.Rows []) (T.Rows [ row 1 [] ]))

let test_op_introspection () =
  let key = T.key "P" "a" in
  List.iter
    (fun op -> Alcotest.(check bool) "op key" true (T.op_key op = key))
    [
      T.Insert { key; props = [] };
      T.Replace { key; etag = 1; props = [] };
      T.Merge { key; etag = 1; props = [] };
      T.Insert_or_replace { key; props = [] };
      T.Insert_or_merge { key; props = [] };
      T.Delete { key; etag = None };
    ];
  Alcotest.(check bool) "op renders" true
    (String.length (T.op_to_string (T.Delete { key; etag = Some 4 })) > 0)

(* --- Filter0 ----------------------------------------------------------------- *)

let test_filter0_printing_and_size () =
  let f =
    F0.And
      (F0.Compare (F0.Pk, F0.Eq, "P"), F0.Not (F0.Compare (F0.Prop "v", F0.Lt, "3")))
  in
  Alcotest.(check bool) "renders" true (String.length (F0.to_string f) > 0);
  Alcotest.(check int) "size" 4 (F0.size f)

(* --- Workload / bug-flag plumbing ---------------------------------------------- *)

let test_bug_flags_roundtrip () =
  List.iter
    (fun name -> ignore (Chaintable.Bug_flags.with_bug name))
    Chaintable.Bug_flags.names;
  Alcotest.(check bool) "unknown raises" true
    (try
       ignore (Chaintable.Bug_flags.with_bug "NoSuchBug");
       false
     with Invalid_argument _ -> true);
  Alcotest.(check int) "eleven bugs" 11 (List.length Chaintable.Bug_flags.names)

let test_custom_case_unknown () =
  Alcotest.(check bool) "no custom case raises" true
    (try
       ignore (Chaintable.Workload.custom_case "QueryAtomicFilterShadowing");
       false
     with Invalid_argument _ -> true)

let test_catalog_consistency () =
  let module C = Catalog.Bug_catalog in
  Alcotest.(check int) "twelve table2 rows" 12 (List.length C.table2);
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s custom-case flag consistent" e.C.name)
        e.C.needs_custom_case
        (e.C.custom_harness <> None && e.C.in_table2))
    C.table2;
  Alcotest.(check bool) "find works" true
    ((C.find "ExtentNodeLivenessViolation").C.name
     = "ExtentNodeLivenessViolation")

(* --- Reference-table properties -------------------------------------------------- *)

let prop_etags_unique =
  QCheck.Test.make ~name:"reference table never reuses etags" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (pair (int_range 0 2) (int_range 0 3)))
    (fun ops ->
      let t = Rt.create () in
      let seen = Hashtbl.create 16 in
      List.for_all
        (fun (rk, v) ->
          let key = T.key "P" (string_of_int rk) in
          match
            Rt.execute t
              (T.Insert_or_replace { key; props = [ ("v", string_of_int v) ] })
          with
          | Ok { T.new_etag = Some e } ->
            if Hashtbl.mem seen e then false
            else begin
              Hashtbl.replace seen e ();
              true
            end
          | _ -> false)
        ops)

let prop_query_equals_filtered_rows =
  QCheck.Test.make ~name:"query = filter over all rows" ~count:100
    QCheck.(list_of_size Gen.(0 -- 20) (pair (int_range 0 4) (int_range 0 3)))
    (fun ops ->
      let t = Rt.create () in
      List.iter
        (fun (rk, v) ->
          ignore
            (Rt.execute t
               (T.Insert_or_replace
                  { key = T.key "P" (string_of_int rk);
                    props = [ ("v", string_of_int v) ] })))
        ops;
      let f = F0.Compare (F0.Prop "v", F0.Eq, "1") in
      Rt.query t f
      = List.filter (fun r -> Chaintable.Filter.matches f r) (Rt.rows t))

let prop_batch_equals_sequential_when_ok =
  QCheck.Test.make
    ~name:"successful batch = sequential application" ~count:100
    QCheck.(list_of_size Gen.(1 -- 5) (int_range 0 9))
    (fun rks ->
      let rks = List.sort_uniq compare rks in
      QCheck.assume (rks <> []);
      let mk rk =
        T.Insert
          { key = T.key "P" (string_of_int rk); props = [ ("v", "1") ] }
      in
      let batch_table = Rt.create () and seq_table = Rt.create () in
      let batch_result = Rt.execute_batch batch_table (List.map mk rks) in
      List.iter (fun rk -> ignore (Rt.execute seq_table (mk rk))) rks;
      (match batch_result with Ok _ -> true | Error _ -> false)
      && List.map (fun r -> (r.T.key, r.T.props)) (Rt.rows batch_table)
         = List.map (fun r -> (r.T.key, r.T.props)) (Rt.rows seq_table))

let suite =
  [
    Alcotest.test_case "vnext fixed safe under message loss" `Slow
      test_vnext_fixed_safe_under_message_loss;
    Alcotest.test_case "vnext bug found with loss" `Slow
      test_vnext_bug_found_with_loss;
    Alcotest.test_case "norm props" `Quick test_norm_props_last_wins;
    QCheck_alcotest.to_alcotest prop_norm_props_reference;
    Alcotest.test_case "merge props" `Quick test_merge_props;
    Alcotest.test_case "key compare" `Quick test_key_compare;
    Alcotest.test_case "outcome equivalence" `Quick test_outcome_equivalence;
    Alcotest.test_case "op introspection" `Quick test_op_introspection;
    Alcotest.test_case "filter0 printing/size" `Quick
      test_filter0_printing_and_size;
    Alcotest.test_case "bug flags roundtrip" `Quick test_bug_flags_roundtrip;
    Alcotest.test_case "custom case unknown" `Quick test_custom_case_unknown;
    Alcotest.test_case "catalog consistency" `Quick test_catalog_consistency;
    QCheck_alcotest.to_alcotest prop_etags_unique;
    QCheck_alcotest.to_alcotest prop_query_equals_filtered_rows;
    QCheck_alcotest.to_alcotest prop_batch_equals_sequential_when_ok;
  ]
