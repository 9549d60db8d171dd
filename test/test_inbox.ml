(* FIFO inbox with filtered dequeue. *)

module Inbox = Psharp.Inbox
module Event = Psharp.Event

type Event.t += N of int | M of int | Tick

(* A constructor whose bare name is also [Tick]'s. *)
module Other = struct
  type Event.t += Tick
end

let n i = N i

let push q e = Inbox.push q ~sender:(-1) ~stamp:(-1) e

let to_int = function
  | N i | M i -> i
  | Tick -> 100
  | Other.Tick -> 200
  | _ -> -1

let drain inbox =
  let rec go acc =
    match Inbox.pop_first inbox (fun _ -> true) with
    | Some e -> go (to_int e :: acc)
    | None -> List.rev acc
  in
  go []

let test_fifo () =
  let q = Inbox.create () in
  List.iter (fun i -> push q (n i)) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3; 4 ] (drain q)

let test_filtered_pop_preserves_order () =
  let q = Inbox.create () in
  List.iter (fun i -> push q (n i)) [ 1; 2; 3; 4; 5 ];
  let picked = Inbox.pop_first q (fun e -> to_int e mod 2 = 0) in
  Alcotest.(check int) "first even" 2 (to_int (Option.get picked));
  Alcotest.(check (list int)) "others in order" [ 1; 3; 4; 5 ] (drain q)

let test_pop_none () =
  let q = Inbox.create () in
  push q (n 1);
  Alcotest.(check bool) "no match" true
    (Inbox.pop_first q (fun e -> to_int e = 9) = None);
  Alcotest.(check int) "element kept" 1 (Inbox.length q)

let test_exists_and_clear () =
  let q = Inbox.create () in
  Alcotest.(check bool) "empty" true (Inbox.is_empty q);
  push q (n 5);
  Alcotest.(check bool) "exists" true (Inbox.exists q (fun e -> to_int e = 5));
  Alcotest.(check bool) "not exists" false (Inbox.exists q (fun e -> to_int e = 6));
  Inbox.clear q;
  Alcotest.(check bool) "cleared" true (Inbox.is_empty q)

let test_interleaved_push_pop () =
  let q = Inbox.create () in
  push q (n 1);
  push q (n 2);
  ignore (Inbox.pop_first q (fun _ -> true));
  push q (n 3);
  Alcotest.(check (list int)) "order across push/pop" [ 2; 3 ] (drain q)

let test_filtered_pop_from_back_segment () =
  (* A filtered pop behind the front after the head has moved: the pop of
     1 advances the ring's head, 4 and 5 land behind 2 and 3, and removing
     4 must close the gap while keeping both order and the O(1) length
     consistent. *)
  let q = Inbox.create () in
  List.iter (fun i -> push q (n i)) [ 1; 2; 3 ];
  ignore (Inbox.pop_first q (fun _ -> true));
  List.iter (fun i -> push q (n i)) [ 4; 5 ];
  let picked = Inbox.pop_first q (fun e -> to_int e = 4) in
  Alcotest.(check int) "picked from back" 4 (to_int (Option.get picked));
  Alcotest.(check int) "length maintained" 3 (Inbox.length q);
  Alcotest.(check (list int)) "order preserved" [ 2; 3; 5 ] (drain q)

(* Model-based property: Inbox behaves like a functional queue with
   filtered removal. *)
let prop_model =
  let open QCheck in
  Test.make ~name:"inbox matches list model" ~count:300
    (list (pair bool (int_range 0 9)))
    (fun ops ->
      let q = Inbox.create () in
      let model = ref [] in
      List.for_all
        (fun (is_push, v) ->
          if is_push then begin
            push q (n v);
            model := !model @ [ v ];
            true
          end
          else begin
            let pred e = to_int e mod 3 = v mod 3 in
            let expected =
              match List.find_opt (fun x -> x mod 3 = v mod 3) !model with
              | Some x ->
                model := (
                  let rec remove = function
                    | [] -> []
                    | y :: ys -> if y = x then ys else y :: remove ys
                  in
                  remove !model);
                Some x
              | None -> None
            in
            let got = Option.map to_int (Inbox.pop_first q pred) in
            got = expected && Inbox.length q = List.length !model
          end)
        ops)

(* Model test of the whole interface against a list of (event, sender,
   stamp) entries: tagged pushes, filtered dequeues through find / the tag
   accessors / take, pop_first, peek_first, exists, exists_constructor,
   clear, and enough pushes between dequeues to wrap and grow the ring
   buffer. The events come from four constructors: [M] and [N] with
   payloads, and two constant ones that share the bare name [Tick]. *)
type op =
  | Push of int * int * int * int  (* constructor, value, sender, stamp *)
  | Take of int  (* remove the first entry with value mod 3 = k *)
  | Pop_first of int
  | Peek of int
  | Exists_constructor of int
  | Clear

let event_of kind v =
  match kind with 0 -> M v | 1 -> N v | 2 -> Tick | _ -> Other.Tick

let kind_of = function
  | M _ -> 0
  | N _ -> 1
  | Tick -> 2
  | Other.Tick -> 3
  | _ -> -1

let kind_name = [| "M"; "N"; "Tick"; "Other.Tick" |]

let gen_op =
  QCheck.Gen.(
    frequency
      [
        ( 6,
          map
            (fun (k, v, s, t) -> Push (k, v, s, t))
            (quad (int_range 0 3) (int_range 0 9) (int_range (-1) 5)
               (int_range (-1) 50)) );
        (3, map (fun k -> Take k) (int_range 0 3));
        (2, map (fun k -> Pop_first k) (int_range 0 3));
        (1, map (fun k -> Peek k) (int_range 0 3));
        (1, map (fun k -> Exists_constructor k) (int_range 0 3));
        (1, return Clear);
      ])

let show_op = function
  | Push (k, v, s, t) ->
    Printf.sprintf "push %s %d s%d t%d" kind_name.(k) v s t
  | Take k -> Printf.sprintf "take %d" k
  | Pop_first k -> Printf.sprintf "pop %d" k
  | Peek k -> Printf.sprintf "peek %d" k
  | Exists_constructor k -> Printf.sprintf "exists_constructor %s" kind_name.(k)
  | Clear -> "clear"

let prop_tagged_model =
  let open QCheck in
  Test.make ~name:"inbox matches tagged list model" ~count:500
    (make ~print:(Print.list show_op) Gen.(list_size (int_range 0 120) gen_op))
    (fun ops ->
      let q = Inbox.create () in
      let model = ref [] in
      let matches k v = v mod 3 = k mod 3 in
      let rec remove_first p = function
        | [] -> (None, [])
        | x :: xs ->
          if p x then (Some x, xs)
          else
            let found, rest = remove_first p xs in
            (found, x :: rest)
      in
      let value (e, _, _) = to_int e in
      let same_events () =
        List.map to_int (Inbox.to_list q) = List.map value !model
        && Inbox.length q = List.length !model
        && Inbox.is_empty q = (!model = [])
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Push (kind, v, sender, stamp) ->
              let e = event_of kind v in
              Inbox.push q ~sender ~stamp e;
              model := !model @ [ (e, sender, stamp) ];
              true
            | Take k ->
              let expected, rest =
                remove_first (fun x -> matches k (value x)) !model
              in
              let i = Inbox.find q (fun e -> matches k (to_int e)) in
              (match expected with
               | None -> i = -1
               | Some (e, sender, stamp) ->
                 model := rest;
                 i >= 0
                 && Inbox.sender_at q i = sender
                 && Inbox.stamp_at q i = stamp
                 && Inbox.take q i == e)
            | Pop_first k ->
              let expected, rest =
                remove_first (fun x -> matches k (value x)) !model
              in
              (match expected with Some _ -> model := rest | None -> ());
              Option.map to_int (Inbox.pop_first q (fun e -> matches k (to_int e)))
              = Option.map value expected
            | Peek k ->
              let p e = matches k (to_int e) in
              Option.map to_int (Inbox.peek_first q p)
              = Option.map value
                  (List.find_opt (fun x -> matches k (value x)) !model)
              && Inbox.exists q p
                 = List.exists (fun x -> matches k (value x)) !model
            | Exists_constructor kind ->
              (* the probe's payload differs from every pushed one *)
              let c = Event.constructor (event_of kind (-7)) in
              Inbox.exists_constructor q c
              = List.exists (fun (e, _, _) -> kind_of e = kind) !model
            | Clear ->
              Inbox.clear q;
              model := [];
              true
          in
          ok && same_events ())
        ops)

let suite =
  [
    Alcotest.test_case "fifo order" `Quick test_fifo;
    Alcotest.test_case "filtered pop preserves order" `Quick
      test_filtered_pop_preserves_order;
    Alcotest.test_case "pop with no match" `Quick test_pop_none;
    Alcotest.test_case "exists / clear" `Quick test_exists_and_clear;
    Alcotest.test_case "interleaved push/pop" `Quick test_interleaved_push_pop;
    Alcotest.test_case "filtered pop from back segment" `Quick
      test_filtered_pop_from_back_segment;
    QCheck_alcotest.to_alcotest prop_model;
    QCheck_alcotest.to_alcotest prop_tagged_model;
  ]
