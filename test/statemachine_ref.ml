(* Slow reference for [Psharp.Statemachine]: the dispatcher as first
   written, which looks every delivered event up by name, scanning the
   handler, defer and ignore lists of each state on the stack with
   [String.equal]. The property in [test_statemachine.ml] runs it and the
   production dispatcher, which resolves each (state, constructor) pair by
   name once and caches the answer, on the same random state stacks and
   event streams, and requires the same handler calls, transitions, stash
   replays and outcome. Only the transition and handler types are shared
   with the library, so one handler serves both. Not used by the
   library. *)

open Psharp

type 'm transition = 'm Statemachine.transition =
  | Stay
  | Goto of string
  | Push of string
  | Pop
  | Halt_machine
  | Unhandled

type 'm handler = 'm Statemachine.handler

type 'm state = {
  sname : string;
  entry : Runtime.ctx -> 'm -> unit;
  exit_ : Runtime.ctx -> 'm -> unit;
  handlers : (string * 'm handler) list;
  deferred : string list;
  ignored : string list;
}

let nop _ _ = ()

let state ?(entry = nop) ?(exit_ = nop) ?(defer = []) ?(ignore_ = []) sname
    handlers =
  { sname; entry; exit_; handlers; deferred = defer; ignored = ignore_ }

let find_state states name =
  match List.find_opt (fun s -> s.sname = name) states with
  | Some s -> s
  | None ->
    invalid_arg (Printf.sprintf "Statemachine: undeclared state %s" name)

let rec mem_name name = function
  | [] -> false
  | n :: rest -> String.equal n name || mem_name name rest

(* The handler of [name] in [handlers], or [no_handler]: a sentinel
   compared by address, so a lookup allocates no option. *)
let no_handler _ _ _ = Unhandled

let rec find_handler name = function
  | [] -> no_handler
  | (n, h) :: rest -> if String.equal n name then h else find_handler name rest

let halt_name = Event.name Event.Halt_event

(* The active states form a stack (P# push/pop semantics): the top state
   handles events first; events it neither handles, defers nor ignores
   fall through to the states below it. *)
let rec deferred_by stack ev_name =
  match stack with
  | [] -> false
  | st :: below ->
    if find_handler ev_name st.handlers != no_handler then false
    else if mem_name ev_name st.deferred then true
    else if mem_name ev_name st.ignored then false
    else deferred_by below ev_name

let handler ctx ~machine ~states ~init model =
  Registry.register_machine ~machine ~kind:Registry.Machine
    ~states:(List.length states)
    ~handlers:
      (List.fold_left (fun n s -> n + List.length s.handlers) 0 states);
  let stack = ref [ find_state states init ] in
  let top () =
    match !stack with
    | st :: _ -> st
    | [] -> assert false
  in
  (* Deferred events, oldest first; tags unused. *)
  let stash = Inbox.create () in
  let unhandled e =
    raise
      (Error.Bug
         (Error.Unhandled_event
            {
              machine = Id.to_string (Runtime.self ctx);
              state = (top ()).sname;
              event = Event.to_string e;
            }))
  in
  let record target =
    Registry.record_transition ~machine ~from_:(top ()).sname ~to_:target;
    Runtime.set_state_name ctx target;
    if Runtime.logging ctx then
      Runtime.log ctx
        (Printf.sprintf "transition %s -> %s" (top ()).sname target)
  in
  let goto target =
    (top ()).exit_ ctx model;
    record target;
    stack := [ find_state states target ];
    (top ()).entry ctx model
  in
  let push target =
    record target;
    stack := find_state states target :: !stack;
    (top ()).entry ctx model
  in
  let pop () =
    match !stack with
    | [ _ ] ->
      raise
        (Error.Bug
           (Error.Machine_exception
              {
                machine = Id.to_string (Runtime.self ctx);
                exn = "Statemachine: pop from the initial state";
              }))
    | st :: rest ->
      st.exit_ ctx model;
      stack := rest;
      record (top ()).sname
    | [] -> assert false
  in
  let rec dispatch e ev_name = function
    | [] -> if String.equal ev_name halt_name then Runtime.halt ctx else unhandled e
    | st :: below ->
      let h = find_handler ev_name st.handlers in
      if h != no_handler then begin
        match h ctx model e with
        | Stay -> ()
        | Goto target -> goto target
        | Push target -> push target
        | Pop -> pop ()
        | Halt_machine -> Runtime.halt ctx
        | Unhandled -> unhandled e
      end
      else if mem_name ev_name st.deferred then
        Inbox.push stash ~sender:(-1) ~stamp:(-1) e
      else if mem_name ev_name st.ignored then ()
      else dispatch e ev_name below
  in
  let apply e = dispatch e (Event.name e) !stack in
  (* The first stashed event the current state stack no longer defers. *)
  let replayable e = not (deferred_by !stack (Event.name e)) in
  Runtime.set_state_name ctx init;
  (top ()).entry ctx model;
  (* One delivery: apply the event, then every stashed event the new
     state stack no longer defers, oldest first. *)
  let rec replay () =
    if not (Inbox.is_empty stash) then
      match Inbox.find stash replayable with
      | -1 -> ()
      | i ->
        apply (Inbox.take stash i);
        replay ()
  in
  fun e ->
    apply e;
    replay ()

let run ctx ~machine ~states ~init model =
  Runtime.serve ctx (handler ctx ~machine ~states ~init model)
