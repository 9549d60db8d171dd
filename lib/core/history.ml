type ('op, 'res) operation = {
  id : int;
  client : string;
  op : 'op;
  op_repr : string Lazy.t;
  invoked_at : int;
  invoke_seq : int;
  mutable result : ('res * string Lazy.t * int * int) option;
}

(* Operations indexed by id. Recording order needs no event list of its
   own: every event's sequence number is on its operation, so
   serialization puts them back in order. *)
type ('op, 'res) t = {
  mutable ops : ('op, 'res) operation array;  (* indexed by id; grows *)
  mutable n_ops : int;
  mutable next_seq : int;
  mutable n_completed : int;
  on_complete : (string Lazy.t -> unit) option;
}

let create ?on_complete () =
  { ops = [||]; n_ops = 0; next_seq = 0; n_completed = 0; on_complete }

let check_repr ~what s =
  if String.contains s '\n' then
    invalid_arg (Printf.sprintf "History: %s contains a newline: %S" what s)

let check_client s =
  check_repr ~what:"client" s;
  if s = "" || String.contains s ' ' then
    invalid_arg (Printf.sprintf "History: bad client name %S" s)

let render_op o =
  let s = Lazy.force o.op_repr in
  check_repr ~what:"op repr" s;
  s

let render_result o =
  match o.result with
  | Some (_, repr, _, _) ->
    let s = Lazy.force repr in
    check_repr ~what:"result repr" s;
    s
  | None ->
    invalid_arg
      (Printf.sprintf "History.render_result: operation %d is pending" o.id)

let grow t =
  let cap = Array.length t.ops in
  if t.n_ops >= cap then begin
    let dummy = t.ops.(0) in
    let bigger = Array.make (max 8 (2 * cap)) dummy in
    Array.blit t.ops 0 bigger 0 t.n_ops;
    t.ops <- bigger
  end

let invoke t ~client ~at ~repr op =
  check_client client;
  let id = t.n_ops in
  let o =
    {
      id;
      client;
      op;
      op_repr = repr;
      invoked_at = at;
      invoke_seq = t.next_seq;
      result = None;
    }
  in
  t.next_seq <- t.next_seq + 1;
  if Array.length t.ops = 0 then t.ops <- Array.make 8 o else grow t;
  t.ops.(id) <- o;
  t.n_ops <- t.n_ops + 1;
  id

let respond t ~id ~at ~repr res =
  if id < 0 || id >= t.n_ops then
    invalid_arg (Printf.sprintf "History.respond: unknown operation id %d" id);
  let o = t.ops.(id) in
  (match o.result with
  | Some _ ->
      invalid_arg
        (Printf.sprintf "History.respond: operation %d already completed" id)
  | None -> ());
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  o.result <- Some (res, repr, at, seq);
  t.n_completed <- t.n_completed + 1;
  match t.on_complete with
  | None -> ()
  | Some f ->
    f
      (lazy
        (Printf.sprintf "%s %s -> %s" o.client (render_op o) (render_result o)))

let operations t = Array.to_list (Array.sub t.ops 0 t.n_ops)
let size t = t.n_ops
let completed t = t.n_completed

(* --- serialization --- *)

(* Events back in recording order: slot [seq] holds the operation the
   event with that sequence number belongs to; it is the invocation when
   [seq] is the operation's [invoke_seq], its response otherwise. *)
let to_string t =
  let by_seq = Array.make t.next_seq None in
  for id = 0 to t.n_ops - 1 do
    let o = t.ops.(id) in
    by_seq.(o.invoke_seq) <- Some o;
    match o.result with
    | Some (_, _, _, seq) -> by_seq.(seq) <- Some o
    | None -> ()
  done;
  let buf = Buffer.create 256 in
  Array.iteri
    (fun seq slot ->
      match slot with
      | None -> assert false
      | Some o when seq = o.invoke_seq ->
        Buffer.add_string buf
          (Printf.sprintf "i %d %d %d %s %s\n" o.id seq o.invoked_at o.client
             (render_op o))
      | Some o ->
        let at =
          match o.result with Some (_, _, at, _) -> at | None -> assert false
        in
        Buffer.add_string buf
          (Printf.sprintf "r %d %d %d %s\n" o.id seq at (render_result o)))
    by_seq;
  Buffer.contents buf

let fail line msg =
  invalid_arg (Printf.sprintf "History.of_string: %s in line %S" msg line)

(* Strict int field: canonical decimal only (no leading zeros except "0",
   no signs) so to_string is a fixpoint of parsing. *)
let int_field line s =
  let ok =
    s <> ""
    && (String.length s = 1 || s.[0] <> '0')
    && String.for_all (fun c -> c >= '0' && c <= '9') s
  in
  if not ok then fail line "bad integer field";
  int_of_string s

(* Split [s] into at most [n] space-separated fields; the last field
   absorbs the remainder (reprs may contain spaces). *)
let split_fields line s n =
  let rec go start k acc =
    if k = n - 1 then
      List.rev (String.sub s start (String.length s - start) :: acc)
    else
      match String.index_from_opt s start ' ' with
      | None -> fail line "too few fields"
      | Some i ->
          if i = start then fail line "empty field";
          go (i + 1) (k + 1) (String.sub s start (i - start) :: acc)
  in
  if s = "" then fail line "too few fields" else go 0 0 []

let of_string s =
  let t = create () in
  let expect_seq = ref 0 in
  let lines = String.split_on_char '\n' s in
  let rec loop = function
    | [] -> ()
    | [ "" ] -> ()  (* trailing newline *)
    | line :: rest ->
        (if String.length line < 2 || line.[1] <> ' ' then
           fail line "expected \"i \" or \"r \" prefix"
         else
           let body = String.sub line 2 (String.length line - 2) in
           match line.[0] with
           | 'i' -> (
               match split_fields line body 5 with
               | [ id_s; seq_s; at_s; client; repr ] ->
                   let id = int_field line id_s in
                   let seq = int_field line seq_s in
                   let at = int_field line at_s in
                   if id <> t.n_ops then fail line "non-dense operation id";
                   if seq <> !expect_seq then fail line "out-of-order seq";
                   incr expect_seq;
                   if repr = "" then fail line "empty op repr";
                   (try
                      ignore
                        (invoke t ~client ~at ~repr:(Lazy.from_val repr) repr
                          : int)
                    with Invalid_argument m -> fail line m)
               | _ -> fail line "bad invoke record")
           | 'r' -> (
               match split_fields line body 4 with
               | [ id_s; seq_s; at_s; repr ] ->
                   let id = int_field line id_s in
                   let seq = int_field line seq_s in
                   let at = int_field line at_s in
                   if seq <> !expect_seq then fail line "out-of-order seq";
                   incr expect_seq;
                   if repr = "" then fail line "empty result repr";
                   (try respond t ~id ~at ~repr:(Lazy.from_val repr) repr
                    with Invalid_argument m -> fail line m)
               | _ -> fail line "bad respond record")
           | _ -> fail line "expected \"i \" or \"r \" prefix");
        loop rest
  in
  loop lines;
  t

let save ~path t =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string t))

let load ~path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> of_string (really_input_string ic (in_channel_length ic)))
