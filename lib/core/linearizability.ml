type ('state, 'op, 'res) model = {
  init : 'state;
  apply : 'state -> 'op -> 'state * 'res;
  match_res : 'res -> 'res -> bool;
  repr_res : 'res -> string;
  hash_state : 'state -> int;
  equal_state : 'state -> 'state -> bool;
  key_of : ('op -> string) option;
}

type verdict = Linearizable of int list | Illegal of string

let verdict_to_string = function
  | Linearizable _ -> "linearizable"
  | Illegal msg -> msg

exception Found of int list

(* The deepest point the search got stuck at, kept unrendered: reprs are
   forced only if the verdict turns out to be a violation. *)
type 'res stuck = {
  s_depth : int;  (* complete ops linearized when the search got stuck *)
  s_index : int;  (* the operation no candidate could explain *)
  s_model : 'res;  (* what the model would have answered *)
}

(* A memo entry: the remaining set as bits, the model state, and the
   hash of both, computed once. *)
type 'state node = { rem : int array; state : 'state; hash : int }

let mix h =
  let h = h * 0x1E3779B97F4A7C15 in
  h lxor (h lsr 29)

(* Core WGL search on one (sub-)history. Returns a witness order or a
   deterministic description of the deepest point no candidate could
   pass. *)
let search (type s) (model : (s, _, _) model)
    (ops : (_, _) History.operation array) =
  let module Memo = Hashtbl.Make (struct
    type t = s node

    let equal a b =
      a.hash = b.hash && a.rem = b.rem && model.equal_state a.state b.state

    let hash a = a.hash
  end) in
  let n = Array.length ops in
  let invoke_seq = Array.map (fun o -> o.History.invoke_seq) ops in
  let respond_seq =
    Array.map
      (fun o ->
        match o.History.result with
        | Some (_, _, _, seq) -> seq
        | None -> max_int)
      ops
  in
  let complete = Array.map (fun o -> o.History.result <> None) ops in
  let total_complete =
    Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 complete
  in
  let in_rem = Array.make n true in
  (* bitset mirror of in_rem, the memo key's remaining set, with a hash
     kept up to date as operations leave and re-enter it *)
  let w = Sys.int_size in
  let rem = Array.make ((n + w - 1) / w) 0 in
  let rem_hash = ref 0 in
  let toggle i =
    rem.(i / w) <- rem.(i / w) lxor (1 lsl (i mod w));
    rem_hash := !rem_hash lxor mix (i + 1)
  in
  for i = 0 to n - 1 do
    toggle i
  done;
  let memo = Memo.create 16 in
  let best = ref None in
  let record_stuck ~depth i r =
    let keep =
      match !best with None -> true | Some s -> depth > s.s_depth
    in
    if keep then best := Some { s_depth = depth; s_index = i; s_model = r }
  in
  let rec dfs st done_complete acc =
    if done_complete = total_complete then raise (Found (List.rev acc));
    let node =
      {
        rem = Array.copy rem;
        state = st;
        hash = mix (!rem_hash + model.hash_state st);
      }
    in
    if not (Memo.mem memo node) then begin
      Memo.add memo node ();
      let min_resp = ref max_int in
      for i = 0 to n - 1 do
        if in_rem.(i) && respond_seq.(i) < !min_resp then
          min_resp := respond_seq.(i)
      done;
      for i = 0 to n - 1 do
        (* minimal ops only: an op already invoked before every remaining
           response may linearize next *)
        if in_rem.(i) && invoke_seq.(i) < !min_resp then begin
          let st', r = model.apply st ops.(i).History.op in
          if complete.(i) then begin
            let recorded =
              match ops.(i).History.result with
              | Some (res, _, _, _) -> res
              | None -> assert false
            in
            if model.match_res r recorded then begin
              in_rem.(i) <- false;
              toggle i;
              dfs st' (done_complete + 1) (ops.(i).History.id :: acc);
              in_rem.(i) <- true;
              toggle i
            end
            else record_stuck ~depth:done_complete i r
          end
          else begin
            (* pending: may have taken effect (linearize it, any result)
               or not (simply never pick it) *)
            in_rem.(i) <- false;
            toggle i;
            dfs st' done_complete (ops.(i).History.id :: acc);
            in_rem.(i) <- true;
            toggle i
          end
        end
      done
    end
  in
  match dfs model.init 0 [] with
  | () ->
      let msg =
        match !best with
        | Some s ->
            let o = ops.(s.s_index) in
            Printf.sprintf
              "history not linearizable: linearized %d/%d complete ops; no \
               order explains %s %s -> %s (model would produce %s)"
              s.s_depth total_complete o.History.client (History.render_op o)
              (History.render_result o) (model.repr_res s.s_model)
        | None -> "history not linearizable"
      in
      Error msg
  | exception Found witness -> Ok witness

let by_id a b = compare a.History.id b.History.id

let check_operations model operations =
  let run ops_list =
    search model (Array.of_list (List.sort by_id ops_list))
  in
  match model.key_of with
  | None -> (
      match run operations with
      | Ok w -> Linearizable w
      | Error msg -> Illegal msg)
  | Some key_of ->
      (* P-compositionality: per-key sub-histories check independently *)
      let groups = Hashtbl.create 16 in
      List.iter
        (fun o ->
          let k = key_of o.History.op in
          Hashtbl.replace groups k
            (o :: (try Hashtbl.find groups k with Not_found -> [])))
        operations;
      let keys =
        List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) groups [])
      in
      let rec go acc = function
        | [] -> Linearizable (List.concat (List.rev acc))
        | k :: rest -> (
            match run (Hashtbl.find groups k) with
            | Ok w -> go (w :: acc) rest
            | Error msg -> Illegal (Printf.sprintf "key %s: %s" k msg))
      in
      go [] keys

let check model history = check_operations model (History.operations history)
