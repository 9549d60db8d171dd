type 'm transition =
  | Stay
  | Goto of string
  | Push of string
  | Pop
  | Halt_machine
  | Unhandled

type 'm handler = Runtime.ctx -> 'm -> Event.t -> 'm transition

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

let rec mem_name name = function
  | [] -> false
  | n :: rest -> String.equal n name || mem_name name rest

(* What a state does with an event is a handler or one of four sentinels,
   compared by address, so resolving one allocates nothing. The bodies
   differ so no two sentinels can share a closure. *)
let no_handler _ _ _ = Unhandled  (* fall through to the state below *)
let defers _ _ _ = Stay
let ignores _ _ _ = Pop
let unresolved _ _ _ = Halt_machine

let rec find_handler name = function
  | [] -> no_handler
  | (n, h) :: rest -> if String.equal n name then h else find_handler name rest

let resolve st ev_name =
  let h = find_handler ev_name st.handlers in
  if h != no_handler then h
  else if mem_name ev_name st.deferred then defers
  else if mem_name ev_name st.ignored then ignores
  else no_handler

let halt_name = Event.name Event.Halt_event

(* One started machine. The active states form a stack (P# push/pop
   semantics), held as indices into [states]: the top state handles
   events first; events it neither handles, defers nor ignores fall
   through to the states below it.

   Dispatch cache: [keys] lists the constructors delivered so far, and
   [actions.(k * Array.length states + s)] is what state [s] does with
   constructor [keys.(k)], [unresolved] until first asked. A name depends
   only on the constructor, so each (state, constructor) pair is resolved
   by name once and every later delivery and stash replay reads the
   cache. The cache belongs to this record, built per [handler] call: a
   state value, which a harness may share across executions and domains,
   carries none. *)
type 'm machine = {
  ctx : Runtime.ctx;
  name : string;  (* the registry name *)
  model : 'm;
  states : 'm state array;
  mutable stack : int list;
  stash : Inbox.t;  (* deferred events, oldest first; tags unused *)
  mutable keys : Event.constructor array;
  mutable known : int;
  mutable actions : 'm handler array;
}

let find_state states name =
  let rec go i =
    if i = Array.length states then
      invalid_arg (Printf.sprintf "Statemachine: undeclared state %s" name)
    else if String.equal states.(i).sname name then i
    else go (i + 1)
  in
  go 0

let top t =
  match t.stack with
  | s :: _ -> t.states.(s)
  | [] -> assert false

(* The cache index of constructor [c], learnt on its first delivery. *)
let rec index_of t c i =
  if i < t.known then
    if Array.unsafe_get t.keys i == c then i else index_of t c (i + 1)
  else begin
    let n = Array.length t.states in
    if t.known = Array.length t.keys then begin
      let cap = max 4 (2 * t.known) in
      let keys = Array.make cap c in
      let actions = Array.make (cap * n) unresolved in
      Array.blit t.keys 0 keys 0 t.known;
      Array.blit t.actions 0 actions 0 (t.known * n);
      t.keys <- keys;
      t.actions <- actions
    end;
    t.keys.(i) <- c;
    t.known <- i + 1;
    i
  end

(* What state [s] does with [e], whose constructor has cache index [k]. *)
let action t e k s =
  let j = (k * Array.length t.states) + s in
  let a = Array.unsafe_get t.actions j in
  if a != unresolved then a
  else begin
    let a = resolve t.states.(s) (Event.name e) in
    t.actions.(j) <- a;
    a
  end

let rec deferred_by t e k = function
  | [] -> false
  | s :: below ->
    let a = action t e k s in
    if a == defers then true
    else if a == no_handler then deferred_by t e k below
    else false

let unhandled t e =
  raise
    (Error.Bug
       (Error.Unhandled_event
          {
            machine = Id.to_string (Runtime.self t.ctx);
            state = (top t).sname;
            event = Event.to_string e;
          }))

let record t target =
  Registry.record_transition ~machine:t.name ~from_:(top t).sname ~to_:target;
  Runtime.set_state_name t.ctx target;
  if Runtime.logging t.ctx then
    Runtime.log t.ctx
      (Printf.sprintf "transition %s -> %s" (top t).sname target)

let goto t target =
  (top t).exit_ t.ctx t.model;
  record t target;
  t.stack <- [ find_state t.states target ];
  (top t).entry t.ctx t.model

let push t target =
  record t target;
  t.stack <- find_state t.states target :: t.stack;
  (top t).entry t.ctx t.model

let pop t =
  match t.stack with
  | [ _ ] ->
    raise
      (Error.Bug
         (Error.Machine_exception
            {
              machine = Id.to_string (Runtime.self t.ctx);
              exn = "Statemachine: pop from the initial state";
            }))
  | s :: rest ->
    t.states.(s).exit_ t.ctx t.model;
    t.stack <- rest;
    record t (top t).sname
  | [] -> assert false

let rec dispatch t e k = function
  | [] ->
    if String.equal (Event.name e) halt_name then Runtime.halt t.ctx
    else unhandled t e
  | s :: below ->
    let a = action t e k s in
    if a == defers then Inbox.push t.stash ~sender:(-1) ~stamp:(-1) e
    else if a == ignores then ()
    else if a == no_handler then dispatch t e k below
    else begin
      match a t.ctx t.model e with
      | Stay -> ()
      | Goto target -> goto t target
      | Push target -> push t target
      | Pop -> pop t
      | Halt_machine -> Runtime.halt t.ctx
      | Unhandled -> unhandled t e
    end

let apply t e = dispatch t e (index_of t (Event.constructor e) 0) t.stack

(* One delivery: apply the event, then every stashed event the new state
   stack no longer defers, oldest first. *)
let rec replay t replayable =
  if not (Inbox.is_empty t.stash) then
    match Inbox.find t.stash replayable with
    | -1 -> ()
    | i ->
      apply t (Inbox.take t.stash i);
      replay t replayable

let handler ctx ~machine ~states ~init model =
  Registry.register_machine ~machine ~kind:Registry.Machine
    ~states:(List.length states)
    ~handlers:
      (List.fold_left (fun n s -> n + List.length s.handlers) 0 states);
  let states = Array.of_list states in
  let t =
    {
      ctx;
      name = machine;
      model;
      states;
      stack = [ find_state states init ];
      stash = Inbox.create ();
      keys = [||];
      known = 0;
      actions = [||];
    }
  in
  (* The first stashed event the current state stack no longer defers. *)
  let replayable e =
    not (deferred_by t e (index_of t (Event.constructor e) 0) t.stack)
  in
  Runtime.set_state_name ctx init;
  (top t).entry ctx model;
  fun e ->
    apply t e;
    replay t replayable

let run ctx ~machine ~states ~init model =
  Runtime.serve ctx (handler ctx ~machine ~states ~init model)
