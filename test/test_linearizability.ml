(* The generic linearizability checker (ISSUE 7 tentpole): fixture
   histories over a tiny sequential register, determinism, history
   round-trips, partition equivalence, and the chaintable migration onto
   the generic oracle — lin witnesses replay to exact violation strings
   and the legacy per-operation asserts agree on the same schedules. *)

module H = Psharp.History
module L = Psharp.Linearizability
module E = Psharp.Engine
module Error = Psharp.Error

(* --- a minimal sequential spec: one integer register ------------------- *)

type rop = W of int | R
type rres = Ok_w | Val of int

let register : (int, rop, rres) L.model =
  {
    L.init = 0;
    apply = (fun s -> function W v -> (v, Ok_w) | R -> (s, Val s));
    match_res = ( = );
    repr_res = (function Ok_w -> "ok" | Val v -> Printf.sprintf "val %d" v);
    hash_state = Fun.id;
    equal_state = Int.equal;
    key_of = None;
  }

let rop_repr = function W v -> Printf.sprintf "w %d" v | R -> "r"
let rres_repr = function Ok_w -> "ok" | Val v -> Printf.sprintf "val %d" v

(* A history from a script of [`I (name, op)] / [`R (name, res)] events in
   recording order; names identify operations, clients are [c]. *)
let history_of script =
  let h = H.create () in
  let ids = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match ev with
      | `I (name, op) ->
        Hashtbl.replace ids name
          (H.invoke h ~client:"c" ~at:0 ~repr:(lazy (rop_repr op)) op)
      | `R (name, res) ->
        H.respond h ~id:(Hashtbl.find ids name) ~at:0
          ~repr:(lazy (rres_repr res)) res)
    script;
  h

let expect_ok name h =
  match L.check register h with
  | L.Linearizable _ -> ()
  | L.Illegal msg -> Alcotest.failf "%s rejected: %s" name msg

let expect_illegal name h =
  match L.check register h with
  | L.Illegal _ -> ()
  | L.Linearizable _ -> Alcotest.failf "%s accepted" name

(* --- fixtures ----------------------------------------------------------- *)

let test_sequential () =
  expect_ok "write then read"
    (history_of
       [ `I ("w", W 1); `R ("w", Ok_w); `I ("r", R); `R ("r", Val 1) ])

let test_concurrent_either_order () =
  (* a read overlapping a write may see either value *)
  List.iter
    (fun seen ->
      expect_ok "overlapping read"
        (history_of
           [
             `I ("w", W 1);
             `I ("r", R);
             `R ("r", Val seen);
             `R ("w", Ok_w);
           ]))
    [ 0; 1 ]

let test_stale_read () =
  (* the write completed before the read was invoked: 0 is gone *)
  expect_illegal "stale read"
    (history_of
       [ `I ("w", W 1); `R ("w", Ok_w); `I ("r", R); `R ("r", Val 0) ])

let test_concurrent_read_anomaly () =
  (* Both reads individually overlap the write, but they are sequential
     with each other: new-then-old has no explaining order, because the
     first read pins the write before it and the second still sees the
     old value. *)
  expect_illegal "concurrent-read anomaly"
    (history_of
       [
         `I ("w", W 1);
         `I ("r1", R);
         `R ("r1", Val 1);
         `I ("r2", R);
         `R ("r2", Val 0);
         `R ("w", Ok_w);
       ]);
  (* the benign orientation — old then new — is fine *)
  expect_ok "reads old then new"
    (history_of
       [
         `I ("w", W 1);
         `I ("r1", R);
         `R ("r1", Val 0);
         `I ("r2", R);
         `R ("r2", Val 1);
         `R ("w", Ok_w);
       ])

let test_pending_ops () =
  (* a pending write may have taken effect... *)
  expect_ok "pending write took effect"
    (history_of [ `I ("w", W 1); `I ("r", R); `R ("r", Val 1) ]);
  (* ...or not *)
  expect_ok "pending write skipped"
    (history_of [ `I ("w", W 1); `I ("r", R); `R ("r", Val 0) ]);
  (* but it cannot half-apply: two sequential reads seeing new then old
     are illegal even when the write never responded *)
  expect_illegal "pending write half-applied"
    (history_of
       [
         `I ("w", W 1);
         `I ("r1", R);
         `R ("r1", Val 1);
         `I ("r2", R);
         `R ("r2", Val 0);
       ])

let test_determinism () =
  let script =
    [ `I ("w", W 1); `R ("w", Ok_w); `I ("r", R); `R ("r", Val 0) ]
  in
  let v1 = L.check register (history_of script) in
  let v2 = L.check register (history_of script) in
  Alcotest.(check string)
    "same history, same verdict" (L.verdict_to_string v1)
    (L.verdict_to_string v2);
  (match v1 with
   | L.Illegal msg ->
     let contains sub =
       let n = String.length sub and m = String.length msg in
       let rec go i = i + n <= m && (String.sub msg i n = sub || go (i + 1)) in
       go 0
     in
     Alcotest.(check bool)
       "violation names the unexplained op" true
       (contains "no order explains" && contains "c r -> val 0")
   | L.Linearizable _ -> Alcotest.fail "expected a violation")

(* --- partition equivalence (P-compositionality) ------------------------- *)

let kv_script =
  (* two keys, interleaved; key b carries a stale read *)
  [
    `I ("wa", Shardkv.Model.Put ("a", 1));
    `I ("wb", Shardkv.Model.Put ("b", 2));
    `R ("wa", Shardkv.Model.Put_ok);
    `R ("wb", Shardkv.Model.Put_ok);
    `I ("ra", Shardkv.Model.Get "a");
    `R ("ra", Shardkv.Model.Got (Some 1));
    `I ("rb", Shardkv.Model.Get "b");
    `R ("rb", Shardkv.Model.Got None);
  ]

let kv_history script =
  let h = H.create () in
  let ids = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match ev with
      | `I (name, op) ->
        Hashtbl.replace ids name
          (H.invoke h ~client:"c" ~at:0
             ~repr:(lazy (Shardkv.Model.op_repr op))
             op)
      | `R (name, res) ->
        H.respond h ~id:(Hashtbl.find ids name) ~at:0
          ~repr:(lazy (Shardkv.Model.res_repr res)) res)
    script;
  h

let test_partition_equivalence () =
  let partitioned = Shardkv.Model.lin_model in
  let unpartitioned = { partitioned with L.key_of = None } in
  let h () = kv_history kv_script in
  let p = L.check partitioned (h ()) in
  let u = L.check unpartitioned (h ()) in
  (match (p, u) with
   | L.Illegal _, L.Illegal _ -> ()
   | _ ->
     Alcotest.failf "partitioned=%s unpartitioned=%s" (L.verdict_to_string p)
       (L.verdict_to_string u));
  (* and a clean history is accepted by both *)
  let clean = List.filter (fun ev -> ev <> `R ("rb", Shardkv.Model.Got None)) kv_script
              |> List.filter (fun ev -> ev <> `I ("rb", Shardkv.Model.Get "b")) in
  (match (L.check partitioned (kv_history clean),
          L.check unpartitioned (kv_history clean)) with
   | L.Linearizable _, L.Linearizable _ -> ()
   | p, u ->
     Alcotest.failf "clean: partitioned=%s unpartitioned=%s"
       (L.verdict_to_string p) (L.verdict_to_string u))

(* --- history round-trip ------------------------------------------------- *)

let test_history_roundtrip () =
  let h = history_of
      [ `I ("w", W 7); `I ("r", R); `R ("r", Val 0); `R ("w", Ok_w) ]
  in
  let s = H.to_string h in
  let h' = H.of_string s in
  Alcotest.(check string) "of_string . to_string is the identity" s
    (H.to_string h');
  Alcotest.(check int) "size survives" (H.size h) (H.size h');
  Alcotest.(check int) "completed survives" (H.completed h) (H.completed h');
  let path = Filename.temp_file "psharp_history" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      H.save h ~path;
      Alcotest.(check string) "save/load round-trips" s
        (H.to_string (H.load ~path)))

(* --- histories render their reprs only when read ------------------------ *)

(* Reprs that count how often they are forced. *)
let counted renders s = lazy (incr renders; s)

(* A two-operation register history recorded inside an execution, with
   completion lines wired to the coverage [history] family the way the
   harnesses wire them. [stale] makes the read contradict the write. *)
let recording_harness ~renders ~stale ctx =
  let h = H.create ~on_complete:(Psharp.Runtime.history_point ctx) () in
  let w = H.invoke h ~client:"c" ~at:0 ~repr:(counted renders "w 1") (W 1) in
  H.respond h ~id:w ~at:1 ~repr:(counted renders "ok") Ok_w;
  let r = H.invoke h ~client:"c" ~at:2 ~repr:(counted renders "r") R in
  let seen = if stale then 0 else 1 in
  H.respond h ~id:r ~at:3
    ~repr:(counted renders (rres_repr (Val seen)))
    (Val seen);
  match L.check register h with
  | L.Linearizable _ -> ()
  | L.Illegal msg -> Psharp.Runtime.assert_here ctx false msg

let execute_recording ?coverage ~stale () =
  let renders = ref 0 in
  let strategy =
    Option.get
      ((Psharp.Random_strategy.factory ~seed:1L).Psharp.Strategy.fresh
         ~iteration:0)
  in
  let result =
    Psharp.Runtime.execute
      { Psharp.Runtime.default_config with coverage }
      strategy ~monitors:[] ~name:"Harness"
      (recording_harness ~renders ~stale)
  in
  (!renders, result.Psharp.Runtime.bug)

let test_history_renders_on_read () =
  let renders, bug = execute_recording ~stale:false () in
  Alcotest.(check bool) "clean" true (bug = None);
  Alcotest.(check int) "a passing check with coverage off renders nothing" 0
    renders;
  let cov = Psharp.Coverage.create () in
  let renders, _ = execute_recording ~coverage:cov ~stale:false () in
  Alcotest.(check int) "coverage renders each repr once per completion" 4
    renders;
  Alcotest.(check (list string))
    "completion lines reach the history family"
    [ "c r -> val 1"; "c w 1 -> ok" ]
    (List.sort compare (List.map fst (Psharp.Coverage.histories cov)));
  let renders, bug = execute_recording ~stale:true () in
  Alcotest.(check bool) "stale read convicted" true (bug <> None);
  Alcotest.(check int) "a violation renders only the operation it names" 2
    renders

(* Pinned bytes: the serialized form of a hand-made history, and digests
   of the histories the fixed shardkv and chaintable harnesses record
   over 20 executions each at seed 1. *)
let pinned_text =
  "i 0 0 3 C0 put k 1\ni 1 1 4 C1 get k\nr 1 2 9 got 1\ni 2 3 12 C1 add k \
   2\nr 0 4 15 ok\n"

let test_history_bytes_pinned () =
  let h = H.create () in
  let a = H.invoke h ~client:"C0" ~at:3 ~repr:(lazy "put k 1") () in
  let b = H.invoke h ~client:"C1" ~at:4 ~repr:(lazy "get k") () in
  H.respond h ~id:b ~at:9 ~repr:(lazy "got 1") ();
  ignore (H.invoke h ~client:"C1" ~at:12 ~repr:(lazy "add k 2") () : int);
  H.respond h ~id:a ~at:15 ~repr:(lazy "ok") ();
  Alcotest.(check string) "to_string" pinned_text (H.to_string h);
  let path = Filename.temp_file "psharp_history" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      H.save h ~path;
      let ic = open_in_bin path in
      let saved = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "save" pinned_text saved);
  let recorded config harness =
    let factory = Psharp.Random_strategy.factory ~seed:1L in
    let buf = Buffer.create 4096 in
    for iteration = 0 to 19 do
      let path = Filename.temp_file "psharp_history" ".txt" in
      let strategy = Option.get (factory.Psharp.Strategy.fresh ~iteration) in
      ignore
        (Psharp.Runtime.execute config strategy ~monitors:[] ~name:"Harness"
           (harness path));
      let ic = open_in_bin path in
      Buffer.add_string buf (really_input_string ic (in_channel_length ic));
      close_in ic;
      Sys.remove path
    done;
    Digest.to_hex (Digest.string (Buffer.contents buf))
  in
  let kv =
    let module Cat = Catalog.Bug_catalog in
    List.find (fun e -> e.Cat.case_study = Cat.Cs_shardkv) Cat.all
  in
  Alcotest.(check string) "fixed shardkv histories"
    "a7d9343b02a8ec02b26c52aedcd32561"
    (recorded
       {
         Psharp.Runtime.default_config with
         max_steps = kv.Catalog.Bug_catalog.max_steps;
         faults = kv.Catalog.Bug_catalog.faults;
         clock = kv.Catalog.Bug_catalog.clock;
         deadlock_is_bug = false;
       }
       (fun path -> Shardkv.Harness.test ~history_out:path ()));
  Alcotest.(check string) "fixed chaintable histories (Lin oracle)"
    "6f036bb8e6c4ba774e3a33895e2b6773"
    (recorded
       { Psharp.Runtime.default_config with max_steps = 4_000 }
       (fun path -> Chaintable.Harness.test ~oracle:`Lin ~history_out:path ()))

let rejects label f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.failf "%s: a newline repr was accepted" label

let test_history_newline_on_render () =
  let lines = ref [] in
  let h = H.create ~on_complete:(fun l -> lines := l :: !lines) () in
  let w = H.invoke h ~client:"c" ~at:0 ~repr:(lazy "w\n1") (W 1) in
  H.respond h ~id:w ~at:0 ~repr:(lazy "ok") Ok_w;
  (match L.check register h with
   | L.Linearizable _ -> ()
   | L.Illegal msg -> Alcotest.failf "rejected: %s" msg);
  rejects "to_string" (fun () -> H.to_string h);
  rejects "save" (fun () ->
      let path = Filename.temp_file "psharp_history" ".txt" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () -> H.save ~path h));
  rejects "completion line" (fun () -> Lazy.force (List.hd !lines));
  let r = H.invoke h ~client:"c" ~at:0 ~repr:(lazy "r") R in
  H.respond h ~id:r ~at:0 ~repr:(lazy "val\n0") (Val 0);
  rejects "violation message" (fun () -> L.check register h);
  rejects "client" (fun () ->
      H.invoke h ~client:"c\nd" ~at:0 ~repr:(lazy "r") R)

(* Each malformed input with the exact message [of_string] gives. *)
let of_string_errors =
  [
    ( "i 0 0 0 c r\n\nr 0 1 0 val 0\n",
      "History.of_string: expected \"i \" or \"r \" prefix in line \"\"" );
    ( "x 0 0 0 c r\n",
      "History.of_string: expected \"i \" or \"r \" prefix in line \"x 0 0 0 c \
       r\"" );
    ( "i 1 0 0 c r\n",
      "History.of_string: non-dense operation id in line \"i 1 0 0 c r\"" );
    ( "i 0 1 0 c r\ni 1 0 0 c w 1\n",
      "History.of_string: out-of-order seq in line \"i 0 1 0 c r\"" );
    ( "r 0 0 0 val 0\n",
      "History.of_string: History.respond: unknown operation id 0 in line \"r \
       0 0 0 val 0\"" );
    ( "i 0 0 0 c r\nr 0 1 0 val 0\nr 0 2 0 val 0\n",
      "History.of_string: History.respond: operation 0 already completed in \
       line \"r 0 2 0 val 0\"" );
    ( "i 00 0 0 c r\n",
      "History.of_string: bad integer field in line \"i 00 0 0 c r\"" );
    ("i 0 0 0 c\n", "History.of_string: too few fields in line \"i 0 0 0 c\"");
    ("i 0 0 0 c \n", "History.of_string: empty op repr in line \"i 0 0 0 c \"");
    ("r 0 0 0\n", "History.of_string: too few fields in line \"r 0 0 0\"");
    ( "i 0 0 -1 c r\n",
      "History.of_string: bad integer field in line \"i 0 0 -1 c r\"" );
    ("i", "History.of_string: expected \"i \" or \"r \" prefix in line \"i\"");
    ("i 0 0 0  r\n", "History.of_string: empty field in line \"i 0 0 0  r\"");
    ( "i 0 0 0 c r\nr 0 1 0 \n",
      "History.of_string: empty result repr in line \"r 0 1 0 \"" );
  ]

let test_history_strictness () =
  List.iter
    (fun (text, expected) ->
      match H.of_string text with
      | exception Invalid_argument msg ->
        Alcotest.(check string) (Printf.sprintf "%S" text) expected msg
      | _ -> Alcotest.failf "accepted %S" text)
    of_string_errors

(* --- the memo against a string-keyed reference --------------------------- *)

(* The checker as it was when its memo keyed on rendered states: the same
   DFS with a seen-set of (remaining bitset ^ "\000" ^ repr_state state)
   strings. The property below holds the hashed memo to it. *)
module Reference = struct
  type stuck = {
    s_depth : int;
    s_client : string;
    s_op : string;
    s_recorded : string;
    s_model : string;
  }

  exception Found of int list

  let search model ~repr_state (ops : (_, _) H.operation array) =
    let n = Array.length ops in
    let invoke_seq = Array.map (fun o -> o.H.invoke_seq) ops in
    let respond_seq =
      Array.map
        (fun o ->
          match o.H.result with Some (_, _, _, seq) -> seq | None -> max_int)
        ops
    in
    let complete = Array.map (fun o -> o.H.result <> None) ops in
    let total_complete =
      Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 complete
    in
    let in_rem = Array.make n true in
    let bits = Bytes.make ((n + 8) / 8) '\000' in
    let set_bit i =
      Bytes.set bits (i lsr 3)
        (Char.chr (Char.code (Bytes.get bits (i lsr 3)) lor (1 lsl (i land 7))))
    in
    let clear_bit i =
      Bytes.set bits (i lsr 3)
        (Char.chr
           (Char.code (Bytes.get bits (i lsr 3)) land lnot (1 lsl (i land 7))))
    in
    for i = 0 to n - 1 do
      set_bit i
    done;
    let memo = Hashtbl.create 64 in
    let best = ref None in
    let record_stuck ~depth i model_repr =
      let keep = match !best with None -> true | Some s -> depth > s.s_depth in
      if keep then
        best :=
          Some
            {
              s_depth = depth;
              s_client = ops.(i).H.client;
              s_op = H.render_op ops.(i);
              s_recorded = H.render_result ops.(i);
              s_model = model_repr;
            }
    in
    let rec dfs st done_complete acc =
      if done_complete = total_complete then raise (Found (List.rev acc));
      let key = Bytes.to_string bits ^ "\000" ^ repr_state st in
      if not (Hashtbl.mem memo key) then begin
        Hashtbl.add memo key ();
        let min_resp = ref max_int in
        for i = 0 to n - 1 do
          if in_rem.(i) && respond_seq.(i) < !min_resp then
            min_resp := respond_seq.(i)
        done;
        for i = 0 to n - 1 do
          if in_rem.(i) && invoke_seq.(i) < !min_resp then begin
            let st', r = model.L.apply st ops.(i).H.op in
            let descend done_complete =
              in_rem.(i) <- false;
              clear_bit i;
              dfs st' done_complete (ops.(i).H.id :: acc);
              in_rem.(i) <- true;
              set_bit i
            in
            match ops.(i).H.result with
            | Some (recorded, _, _, _) ->
              if model.L.match_res r recorded then descend (done_complete + 1)
              else record_stuck ~depth:done_complete i (model.L.repr_res r)
            | None -> descend done_complete
          end
        done
      end
    in
    match dfs model.L.init 0 [] with
    | () ->
      Error
        (match !best with
         | Some s ->
           Printf.sprintf
             "history not linearizable: linearized %d/%d complete ops; no \
              order explains %s %s -> %s (model would produce %s)"
             s.s_depth total_complete s.s_client s.s_op s.s_recorded s.s_model
         | None -> "history not linearizable")
    | exception Found witness -> Ok witness

  let check model ~repr_state operations =
    let run ops =
      search model ~repr_state
        (Array.of_list (List.sort (fun a b -> compare a.H.id b.H.id) ops))
    in
    match model.L.key_of with
    | None -> (
      match run operations with
      | Ok w -> L.Linearizable w
      | Error msg -> L.Illegal msg)
    | Some key_of ->
      let groups = Hashtbl.create 16 in
      List.iter
        (fun o ->
          let k = key_of o.H.op in
          Hashtbl.replace groups k
            (o :: (try Hashtbl.find groups k with Not_found -> [])))
        operations;
      let keys =
        List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) groups [])
      in
      let rec go acc = function
        | [] -> L.Linearizable (List.concat (List.rev acc))
        | k :: rest -> (
          match run (Hashtbl.find groups k) with
          | Ok w -> go (w :: acc) rest
          | Error msg -> L.Illegal (Printf.sprintf "key %s: %s" k msg))
      in
      go [] keys
end

(* A random history over [model]: clients invoke operations, each takes
   effect at some point inside its window (or never, if it stays
   pending), and a response reports what the model answered there — or,
   now and then, what it would have answered in an older state, which is
   how illegal histories arise. Pending operations may or may not have
   taken effect. *)
let random_history ?(pending = true) model ~gen_op ~op_repr ~res_repr rs ~n_ops
    =
  let h = H.create () in
  let st = ref model.L.init in
  let past = ref [ model.L.init ] in
  let open_ops = ref [] in
  (* (id, op, Some res once it took effect) *)
  let invoked = ref 0 in
  let pick l = List.nth l (Random.State.int rs (List.length l)) in
  let remove id =
    open_ops := List.filter (fun (i, _, _) -> i <> id) !open_ops
  in
  while !invoked < n_ops || !open_ops <> [] do
    match Random.State.int rs 4 with
    | 0 when !invoked < n_ops && List.length !open_ops < 3 ->
      let op = gen_op rs in
      let client = Printf.sprintf "c%d" (Random.State.int rs 3) in
      let id = H.invoke h ~client ~at:0 ~repr:(lazy (op_repr op)) op in
      incr invoked;
      open_ops := (id, op, None) :: !open_ops
    | 1 -> (
      match List.filter (fun (_, _, r) -> r = None) !open_ops with
      | [] -> ()
      | l ->
        let id, op, _ = pick l in
        let st', r = model.L.apply !st op in
        st := st';
        past := st' :: !past;
        open_ops :=
          List.map
            (fun ((i, o, _) as e) -> if i = id then (i, o, Some r) else e)
            !open_ops)
    | 2 -> (
      match List.filter (fun (_, _, r) -> r <> None) !open_ops with
      | [] -> ()
      | l ->
        let id, op, r = pick l in
        let r =
          if Random.State.int rs 6 = 0 then snd (model.L.apply (pick !past) op)
          else Option.get r
        in
        H.respond h ~id ~at:0 ~repr:(lazy (res_repr r)) r;
        remove id)
    | 3 when pending && Random.State.int rs 8 = 0 && !open_ops <> [] ->
      (* give up on an operation: it stays pending, applied or not *)
      let id, _, _ = pick !open_ops in
      remove id
    | _ -> ()
  done;
  h

(* The three models the checker serves, each with the rendering its memo
   used to key on. *)
let shardkv_repr_state st =
  String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) st)

let chaintable_repr_state (s : Chaintable.Lin_oracle.state) =
  Printf.sprintf "e%d|%s" s.Chaintable.Lin_oracle.next_etag
    (String.concat ";"
       (List.map
          (fun (_, row) -> Chaintable.Table_types.row_to_string row)
          (Chaintable.Reference_table.Key_map.bindings
             s.Chaintable.Lin_oracle.rows)))

let kv_gen_op rs =
  let k = if Random.State.bool rs then "a" else "b" in
  match Random.State.int rs 3 with
  | 0 -> Shardkv.Model.Get k
  | 1 -> Shardkv.Model.Put (k, Random.State.int rs 3)
  | _ -> Shardkv.Model.Add (k, 1 + Random.State.int rs 2)

let chaintable_gen_op rs =
  let module T = Chaintable.Table_types in
  let key = T.key "P0" (if Random.State.bool rs then "r1" else "r3") in
  let props = [ ("v", string_of_int (Random.State.int rs 2)) ] in
  let etag = 1 + Random.State.int rs 5 in
  match Random.State.int rs 8 with
  | 0 -> Chaintable.Linearize.Mutate (T.Insert { key; props })
  | 1 -> Chaintable.Linearize.Mutate (T.Replace { key; etag; props })
  | 2 -> Chaintable.Linearize.Mutate (T.Merge { key; etag; props })
  | 3 -> Chaintable.Linearize.Mutate (T.Insert_or_replace { key; props })
  | 4 -> Chaintable.Linearize.Mutate (T.Insert_or_merge { key; props })
  | 5 ->
    Chaintable.Linearize.Mutate
      (T.Delete
         { key; etag = (if Random.State.bool rs then Some etag else None) })
  | 6 -> Chaintable.Linearize.Read (T.Retrieve key)
  | _ ->
    let module F = Chaintable.Filter0 in
    Chaintable.Linearize.Read
      (T.Query_atomic (F.Compare (F.Prop "v", F.Eq, "1")))

let constant_hash model = { model with L.hash_state = (fun _ -> 0) }

(* [cases seed] checks one random history per model (and per model with
   a constant hash) against the reference; each case returns the
   reference verdict and whether the checker agreed. *)
let agreement_cases ?pending ~seed ~n_ops () =
  let case model ~repr_state ~gen_op ~op_repr ~res_repr =
    let rs = Random.State.make [| seed |] in
    let h =
      random_history ?pending model ~gen_op ~op_repr ~res_repr rs ~n_ops
    in
    let ops = H.operations h in
    let expected = Reference.check model ~repr_state ops in
    let same m = L.check_operations m ops = expected in
    (expected, same model && same (constant_hash model))
  in
  let chaintable =
    Chaintable.Lin_oracle.model
      [ (Chaintable.Table_types.key "P0" "r1", [ ("v", "1") ]) ]
  in
  [
    case register ~repr_state:string_of_int
      ~gen_op:(fun rs ->
        if Random.State.bool rs then R else W (Random.State.int rs 3))
      ~op_repr:rop_repr ~res_repr:rres_repr;
    case Shardkv.Model.lin_model ~repr_state:shardkv_repr_state
      ~gen_op:kv_gen_op ~op_repr:Shardkv.Model.op_repr
      ~res_repr:Shardkv.Model.res_repr;
    case
      { Shardkv.Model.lin_model with L.key_of = None }
      ~repr_state:shardkv_repr_state ~gen_op:kv_gen_op
      ~op_repr:Shardkv.Model.op_repr ~res_repr:Shardkv.Model.res_repr;
    case chaintable ~repr_state:chaintable_repr_state
      ~gen_op:chaintable_gen_op
      ~op_repr:Chaintable.Linearize.pending_to_string
      ~res_repr:Chaintable.Table_types.outcome_to_string;
  ]

let prop_memo_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"hashed memo: same verdict, witness and violation as the string memo"
    QCheck.(pair small_nat (int_range 1 10))
    (fun (seed, n_ops) ->
      List.for_all snd (agreement_cases ~seed ~n_ops ()))

(* Histories longer than one word of remaining-set bits. Without
   pending operations, so a violation's exhaustive search stays small. *)
let test_reference_long_histories () =
  for seed = 0 to 9 do
    List.iteri
      (fun i (_, same) ->
        if not same then Alcotest.failf "model %d disagrees at seed %d" i seed)
      (agreement_cases ~pending:false ~seed ~n_ops:(64 + (seed * 9)) ())
  done

(* The property is not vacuous: its generator yields both verdicts on
   every model. *)
let test_reference_generator_covers_both_verdicts () =
  let tally = Array.make 4 (0, 0) in
  for seed = 0 to 199 do
    List.iteri
      (fun i (verdict, _) ->
        let ok, bad = tally.(i) in
        tally.(i) <-
          (match verdict with
           | L.Linearizable _ -> (ok + 1, bad)
           | L.Illegal _ -> (ok, bad + 1)))
      (agreement_cases ~seed ~n_ops:8 ())
  done;
  Array.iteri
    (fun i (ok, bad) ->
      if ok = 0 || bad = 0 then
        Alcotest.failf "model %d: %d linearizable, %d illegal" i ok bad)
    tally

(* --- chaintable on the generic checker (ISSUE 7 satellite) -------------- *)

let lin_witness_dir =
  lazy
    (let local = Filename.concat "witnesses" "lin" in
     if Sys.file_exists local then local
     else Filename.concat (Filename.concat "test" "witnesses") "lin")

(* Shrunk witnesses hunted under `--check-lin on`: the generic checker
   convicts these schedules with exactly these strings, and the legacy
   per-operation divergence asserts convict the very same schedules —
   the corpus-agreement half of migrating chaintable onto the generic
   oracle. (Truncated legacy witnesses are not re-judged the other way:
   a run aborted at its divergence assert leaves later constraining
   operations unrecorded, and the weaker some-order criterion can
   legitimately accept such a prefix.) *)
let lin_corpus =
  [
    ( "DeletePrimaryKey",
      "assertion failed in machine Harness(0): chaintable: history not \
       linearizable: linearized 4/10 complete ops; no order explains \
       Service1 Mutate(Delete(P1/r0, etag=*)) -> Ok(etag=-) (model would \
       produce Err(NotFound))",
      "assertion failed in machine Service1(3): outcome divergence on \
       Delete(P1/r0, etag=*): migrating table returned Ok(etag=-), \
       reference table returned Err(NotFound)" );
    ( "QueryAtomicFilterShadowing",
      "assertion failed in machine Harness(0): chaintable: history not \
       linearizable: linearized 5/9 complete ops; no order explains \
       Service0 QueryAtomic((v eq '1')) -> Rows[{P0/r1 etag=1 v=1}; \
       {P1/r1 etag=5 v=1}] (model would produce Rows[])",
      "assertion failed in machine Service0(2): query divergence on \
       (v eq '1'): migrating table Rows[{P0/r1 etag=1 v=1}; {P1/r1 etag=5 \
       v=1}], reference table Rows[{P0/r1 etag=1 v=1}]" );
  ]

let replay_chaintable ~oracle bug trace =
  let config = { E.default_config with max_executions = 1; max_steps = 4_000 } in
  let result =
    E.replay config trace
      (Chaintable.Harness.test ~bugs:(Chaintable.Bug_flags.with_bug bug)
         ~oracle ())
  in
  match result.Psharp.Runtime.bug with
  | Some kind -> Error.kind_to_string kind
  | None -> "NO BUG"

let chaintable_agreement (bug, lin_expected, legacy_expected) () =
  let trace =
    Psharp.Trace.load
      ~path:
        (Filename.concat (Lazy.force lin_witness_dir)
           ("ChaintableLin_" ^ bug ^ ".trace"))
  in
  Alcotest.(check string)
    (bug ^ " lin witness reproduces the checker verdict")
    lin_expected
    (replay_chaintable ~oracle:`Lin bug trace);
  Alcotest.(check string)
    (bug ^ " legacy oracle convicts the same schedule")
    legacy_expected
    (replay_chaintable ~oracle:`Legacy bug trace)

let test_chaintable_lin_fixed_clean () =
  let config =
    { E.default_config with max_executions = 500; max_steps = 4_000 }
  in
  match E.run config (Chaintable.Harness.test ~oracle:`Lin ()) with
  | E.No_bug _ -> ()
  | E.Bug_found (report, stats) ->
    Alcotest.failf "fixed chaintable under the lin oracle after %d execs: %s"
      stats.E.executions
      (Error.kind_to_string report.Error.kind)

let test_chaintable_lin_hunts () =
  (* the generic checker finds the divergence bugs on its own *)
  List.iter
    (fun (bug, budget) ->
      let config =
        { E.default_config with max_executions = budget; max_steps = 4_000 }
      in
      match
        E.run config
          (Chaintable.Harness.test ~bugs:(Chaintable.Bug_flags.with_bug bug)
             ~oracle:`Lin ())
      with
      | E.Bug_found _ -> ()
      | E.No_bug stats ->
        Alcotest.failf "%s not found by the lin oracle in %d execs" bug
          stats.E.executions)
    [ ("DeletePrimaryKey", 2_000); ("QueryAtomicFilterShadowing", 2_000) ]

let suite =
  [
    Alcotest.test_case "sequential accepted" `Quick test_sequential;
    Alcotest.test_case "overlapping read, either order" `Quick
      test_concurrent_either_order;
    Alcotest.test_case "stale read rejected" `Quick test_stale_read;
    Alcotest.test_case "concurrent-read anomaly" `Quick
      test_concurrent_read_anomaly;
    Alcotest.test_case "pending operations" `Quick test_pending_ops;
    Alcotest.test_case "verdict determinism" `Quick test_determinism;
    Alcotest.test_case "partition equivalence" `Quick
      test_partition_equivalence;
    Alcotest.test_case "history round-trip" `Quick test_history_roundtrip;
    Alcotest.test_case "history parser strictness" `Quick
      test_history_strictness;
    Alcotest.test_case "history reprs render only when read" `Quick
      test_history_renders_on_read;
    Alcotest.test_case "history bytes pinned" `Quick test_history_bytes_pinned;
    Alcotest.test_case "newline repr rejected when rendered" `Quick
      test_history_newline_on_render;
    QCheck_alcotest.to_alcotest prop_memo_matches_reference;
    Alcotest.test_case "hashed memo on histories over 63 operations" `Quick
      test_reference_long_histories;
    Alcotest.test_case "reference generator covers both verdicts" `Quick
      test_reference_generator_covers_both_verdicts;
    Alcotest.test_case "chaintable fixed clean under lin oracle" `Slow
      test_chaintable_lin_fixed_clean;
    Alcotest.test_case "chaintable lin oracle hunts divergences" `Slow
      test_chaintable_lin_hunts;
  ]
  @ List.map
      (fun entry ->
        let bug, _, _ = entry in
        Alcotest.test_case
          ("chaintable lin/legacy agreement on " ^ bug)
          `Quick (chaintable_agreement entry))
      lin_corpus
