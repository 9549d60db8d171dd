type config = {
  max_steps : int;
  liveness_grace : int option;
  deadlock_is_bug : bool;
  collect_log : bool;
  coverage : Coverage.t option;
  hb : Hb.t option;
  faults : Fault.spec;
  deadline : float option;
  clock : Clock.config option;
  scenario : Scenario.Obs.t option;
}

let default_config =
  {
    max_steps = 5_000;
    liveness_grace = None;
    deadlock_is_bug = true;
    collect_log = false;
    coverage = None;
    hb = None;
    faults = Fault.none;
    deadline = None;
    clock = None;
    scenario = None;
  }

(* A machine is one of two kinds. A fiber machine blocked on [receive] is
   a captured continuation expecting the dequeued event; the whole handled
   computation produces [unit]: both the effect branch (after stashing the
   continuation) and the return/exception branches just fall back to the
   scheduler. A served machine ([serve]) has no fiber once its body has
   parked it: each delivery calls its handler directly, and the machine
   stays [Serving] while the handler runs, which is how [receive] and
   [sleep] tell a handler from a fiber. *)
type status =
  | Not_started of (ctx -> unit)
  | Waiting of (Event.t, unit) Effect.Deep.continuation
      (* the receive's filter, if any, is in [machine.wait_pred] *)
  | Serving of (Event.t -> unit)
  | Running
  | Halted

and machine = {
  id : Id.t;
  inbox : Inbox.t;
  mutable status : status;
  mutable enabled_cache : bool;
      (* last computed [machine_enabled], valid while not [dirty]; a
         machine is in the enabled prefix exactly when this is set. A
         waiting machine's enabledness is monotone between status changes
         (events are only ever added to its inbox until it runs), so the
         cache stays valid until a send or a status transition marks it
         dirty — which is what keeps filtered receives ([wait_pred =
         Some pred]) from re-running [Inbox.exists pred] every step. *)
  mutable dirty : bool;  (* queued in [rt.dirty_q] *)
  mutable wait_pred : (Event.t -> bool) option;
      (* the filter of the receive a [Waiting] machine is blocked on; a
         field rather than a [Waiting] argument so the effect branch that
         blocks the machine can be built once per machine start *)
  persistent : (unit -> ctx -> unit) option;
      (* restart hook: a machine created with one survives [crash] — the
         hook builds the body the machine re-runs from its durable state *)
}

(* A delayed in-flight message: delivered once [d_countdown] later
   deliveries have happened (or immediately if the system would otherwise
   be quiescent — a delayed message must not manufacture a deadlock). *)
and delayed = {
  d_target : int;
  d_sender : int;
  d_stamp : int;  (* hb message stamp, -1 when tracking is off *)
  d_event : Event.t;
  mutable d_countdown : int;
}

and t = {
  config : config;
  log_on : bool;  (* config.collect_log, hoisted for the hot path *)
  msg_faults_on : bool;
      (* Fault.message_faults config.faults, hoisted: with faults disabled
         [send_faulty] is one boolean load away from plain [send] and makes
         zero strategy draws (same zero-cost contract as logging) *)
  deadline_at : float;  (* config.deadline, hoisted; infinity when unset *)
  check_deadline : bool;
  strategy : Strategy.t;
  probe : Probe.t;  (* the observers of [config], built once *)
  monitors : Monitor.t list;
  mutable machines : machine array;
  mutable n_machines : int;
  mutable enabled_buf : int array;
      (* the enabled machines' creation indices, ascending, in the first
         [n_enabled] slots: passed to the strategy as is, and updated in
         place only for machines whose enabledness flipped *)
  mutable n_enabled : int;
  mutable dirty_q : int array;
      (* indices of the machines marked dirty since the last
         [compute_enabled], each at most once; the first [n_dirty] slots *)
  mutable n_dirty : int;
  audit : bool;  (* [Enabled_audit] was on when the execution started *)
  mutable steps : int;
  trace : Trace.Builder.t;
  mutable log_rev : string list;
  mutable bug : Error.kind option;
  mutable bug_step : int;
  mutable faults_remaining : int;
  mutable faults_injected : int;
  mutable delayed : delayed list;  (* oldest first *)
  mutable timed_out : bool;
  clock : Clock.t option;
      (* the virtual clock, when [config.clock] enables simulated time;
         advanced only at quiescence, never by a strategy draw *)
  horizon : int;  (* config.clock.max_time; 0 when the clock is off *)
  mutable step_limit : int;
      (* the effective step bound: starts at [config.max_steps] and is
         extended exactly once when cut-off delayed messages are flushed at
         the bound, granting a bounded drain before the liveness verdict *)
  mutable draining : bool;
  mutable next_wakeup : int;  (* fresh tokens for [sleep] wakeup events *)
  mutable crashed : (Event.t, unit) Effect.Deep.continuation list;
      (* continuations [crash] took from its victims, released with the
         waiting machines' when the execution ends *)
  mutable releasing : bool;  (* see [release] *)
}

and ctx = { rt : t; me : machine }

type exec_result = {
  bug : Error.kind option;
  bug_step : int;
  steps : int;
  choices : Trace.t;
  log : string list;
  timed_out : bool;
  faults_injected : int;
  final_time : int;
}

exception Halt_exn

(* Raised by [serve] to park its machine: the fiber unwinds to the handler
   in [start_machine], which keeps the served handler. *)
exception Serve_exn of (Event.t -> unit)

(* Raised into every fiber [release] unwinds, and again by any runtime
   call such a fiber makes on its way out. *)
exception Released

(* Every runtime call that could record something (a draw, a trace entry,
   a send, a probe event, a log line, a bug) starts here, so a machine
   unwinding after its execution ended records nothing. *)
let live rt = if rt.releasing then raise Released

type _ Effect.t += Receive_eff : (Event.t -> bool) option -> Event.t Effect.t

(* The unfiltered receive, built once: [receive] runs on every step. *)
let receive_any = Receive_eff None

(* Private wakeup event delivered by the clock to a sleeping machine; the
   token is the arming sequence number, so concurrent sleeps on one machine
   never cross wires. *)
type Event.t += Clock_wakeup of int

(* Zero-cost-when-disabled logging contract: [logf] itself always formats,
   so every call site is guarded by [rt.log_on] — with logging off the
   format arguments (Id.to_string, Event.to_string, ...) are never even
   evaluated, and the hot path pays one boolean load. With the clock on,
   every line is prefixed with the virtual timestamp, giving a timestamped
   global-order trace. *)
let logf (rt : t) fmt =
  Printf.ksprintf
    (fun s ->
      let s =
        match rt.clock with
        | Some ck -> Printf.sprintf "[t=%d] %s" (Clock.now ck) s
        | None -> s
      in
      rt.log_rev <- s :: rt.log_rev)
    fmt

(* Virtual time for the probe and the result; 0 when the clock is off. *)
let vtime rt = match rt.clock with Some ck -> Clock.now ck | None -> 0

let set_bug (rt : t) kind =
  if rt.bug = None then begin
    rt.bug <- Some kind;
    rt.bug_step <- rt.steps;
    if rt.log_on then
      logf rt "[%d] BUG: %s" rt.steps (Error.kind_to_string kind)
  end

let mark_dirty rt m =
  if not m.dirty then begin
    m.dirty <- true;
    rt.dirty_q.(rt.n_dirty) <- Id.index m.id;
    rt.n_dirty <- rt.n_dirty + 1
  end

let add_machine ?persistent rt ~parent ~name body =
  if rt.n_machines = Array.length rt.machines then begin
    let bigger =
      Array.make (max 8 (2 * rt.n_machines))
        { id = Id.make ~index:(-1) ~name:"<pad>";
          inbox = Inbox.create ();
          status = Halted;
          enabled_cache = false;
          dirty = false;
          wait_pred = None;
          persistent = None }
    in
    let grow a =
      let b = Array.make (Array.length bigger) 0 in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    Array.blit rt.machines 0 bigger 0 rt.n_machines;
    rt.machines <- bigger;
    rt.enabled_buf <- grow rt.enabled_buf;
    rt.dirty_q <- grow rt.dirty_q
  end;
  let index = rt.n_machines in
  let m =
    { id = Id.make ~index ~name; inbox = Inbox.create ();
      status = Not_started body; enabled_cache = false; dirty = false;
      wait_pred = None; persistent }
  in
  rt.machines.(index) <- m;
  rt.n_machines <- index + 1;
  mark_dirty rt m;
  Probe.create rt.probe ~parent ~index ~name;
  m

(* --- Machine API --- *)

let self ctx = ctx.me.id

let name_of ctx id =
  (* Same bounds pattern as [send]/[send_unless_pending]: a forged or stale
     id with a negative index must not reach the machine array. *)
  if Id.index id >= 0 && Id.index id < ctx.rt.n_machines then
    Id.name ctx.rt.machines.(Id.index id).id
  else "<unknown>"

let create ?persistent ctx ~name body =
  live ctx.rt;
  let m =
    add_machine ?persistent ctx.rt ~parent:(Id.index ctx.me.id) ~name body
  in
  if ctx.rt.log_on then
    logf ctx.rt "[%d] %s creates %s" ctx.rt.steps (Id.to_string ctx.me.id)
      (Id.to_string m.id);
  m.id

let send ctx target e =
  let rt = ctx.rt in
  live rt;
  if Id.index target < 0 || Id.index target >= rt.n_machines then
    invalid_arg "Runtime.send: unknown target machine";
  let m = rt.machines.(Id.index target) in
  (match m.status with
   | Halted ->
     if rt.log_on then
       logf rt "[%d] %s -> %s: %s (dropped: target halted)" rt.steps
         (Id.to_string ctx.me.id) (Id.to_string target) (Event.to_string e)
   | Not_started _ | Waiting _ | Serving _ | Running ->
     let stamp = Probe.send rt.probe ~target:(Id.index target) in
     Inbox.push m.inbox ~sender:(Id.index ctx.me.id) ~stamp e;
     mark_dirty rt m;
     if rt.log_on then
       logf rt "[%d] %s -> %s: %s" rt.steps (Id.to_string ctx.me.id)
         (Id.to_string target) (Event.to_string e))

let send_unless_pending ?same ctx target e =
  let rt = ctx.rt in
  live rt;
  if Id.index target < 0 || Id.index target >= rt.n_machines then
    invalid_arg "Runtime.send_unless_pending: unknown target machine";
  let m = rt.machines.(Id.index target) in
  let duplicate =
    match same with
    | Some pred -> Inbox.exists m.inbox pred
    | None -> Inbox.exists_name m.inbox (Event.name e)
  in
  if duplicate then begin
    (* the coalesce decision read the target's inbox: conservatively
       ordered against it even though nothing was enqueued *)
    Probe.touch rt.probe ~target:(Id.index target);
    if rt.log_on then
      logf rt "[%d] %s -> %s: %s (coalesced)" rt.steps
        (Id.to_string ctx.me.id) (Id.to_string target) (Event.to_string e)
  end
  else send ctx target e

(* A served handler runs on the scheduler's stack, where no handler
   catches [Receive_eff]: blocking there is a named error, reported as the
   machine's exception, not an [Effect.Unhandled]. *)
let not_in_handler ctx fn =
  match ctx.me.status with
  | Serving _ ->
    invalid_arg (fn ^ ": a served machine's handler cannot block")
  | _ -> ()

let receive ctx =
  live ctx.rt;
  not_in_handler ctx "Runtime.receive";
  Effect.perform receive_any

let receive_where ctx pred =
  live ctx.rt;
  not_in_handler ctx "Runtime.receive_where";
  Effect.perform (Receive_eff (Some pred))

let serve ctx handler =
  live ctx.rt;
  raise (Serve_exn handler)

(* What [nondet] and [nondet_int] do with a choice once it is made, also
   for a choice a scenario forces: the trace, the probe and the log see
   both alike. *)
let[@inline] record_bool ctx b =
  let rt = ctx.rt in
  Trace.Builder.add_bool rt.trace b;
  Probe.choose_bool rt.probe ~machine:(Id.index ctx.me.id) b;
  if rt.log_on then
    logf rt "[%d] %s nondet -> %b" rt.steps (Id.to_string ctx.me.id) b;
  b

let[@inline] record_int ctx ~bound i =
  let rt = ctx.rt in
  Trace.Builder.add_int rt.trace i;
  Probe.choose_int rt.probe ~machine:(Id.index ctx.me.id) ~bound i;
  if rt.log_on then
    logf rt "[%d] %s nondet_int(%d) -> %d" rt.steps (Id.to_string ctx.me.id)
      bound i;
  i

let nondet ctx =
  let rt = ctx.rt in
  live rt;
  record_bool ctx (rt.strategy.next_bool ~step:rt.steps)

let nondet_int ctx bound =
  if bound <= 0 then invalid_arg "Runtime.nondet_int: bound must be positive";
  let rt = ctx.rt in
  live rt;
  record_int ctx ~bound (rt.strategy.next_int ~bound ~step:rt.steps)

let choose ctx xs =
  match xs with
  | [] -> invalid_arg "Runtime.choose: empty list"
  | [ x ] -> x
  | _ ->
    (* One traversal to an array, O(1) indexing; same [nondet_int] draw
       (bound = length) as the old List.length/List.nth pair. *)
    let arr = Array.of_list xs in
    arr.(nondet_int ctx (Array.length arr))

let halt _ctx = raise Halt_exn

(* Draw-free, like all coverage recording: harnesses wire this into
   [History.create ~on_complete] so completed client operations land in
   the coverage [history] family. The probe renders the line only when
   coverage is on, so with coverage off a completed operation costs no
   string. *)
let history_point ctx point =
  live ctx.rt;
  Probe.history ctx.rt.probe point

(* --- Fault injection --- *)

let record_fault rt ~kind ~target =
  rt.faults_remaining <- rt.faults_remaining - 1;
  rt.faults_injected <- rt.faults_injected + 1;
  Probe.fault rt.probe ~kind ~target:(Id.name target)

(* Put [e] in flight to [target] for [after]: armed on the clock when it
   is on, else behind [after] later deliveries. It lands by [arrive]. *)
let in_flight rt ~after ~target ~sender e =
  let stamp = Probe.send_later rt.probe ~target in
  match rt.clock with
  | Some ck -> ignore (Clock.arm ck ~after ~target ~sender ~stamp e)
  | None ->
    rt.delayed <-
      rt.delayed
      @ [ { d_target = target; d_sender = sender; d_stamp = stamp; d_event = e;
            d_countdown = after } ]

(* The armed message-fault kinds in draw order, one array for each
   combination of [drop], [duplicate] and [delay], built once: an
   injection indexes its spec's array with its kind draw. *)
let kinds_by_mask =
  Array.init 8 (fun mask ->
      Array.of_list
        (List.filteri
           (fun bit _ -> mask land (1 lsl bit) <> 0)
           [ Fault.Drop; Fault.Duplicate; Fault.Delay ]))

let armed_kinds (spec : Fault.spec) =
  kinds_by_mask.(Bool.to_int spec.drop
                 lor (Bool.to_int spec.duplicate lsl 1)
                 lor (Bool.to_int spec.delay lsl 2))

(* A fault draw of [send_faulty]: drawn from the strategy when the
   scenario forces nothing, else [v], the value the forced fault means. *)
let[@inline] draw_bool ctx forced v =
  match forced with None -> nondet ctx | Some _ -> record_bool ctx v

let[@inline] draw_int ctx forced ~bound v =
  match forced with
  | None -> nondet_int ctx bound
  | Some _ -> record_int ctx ~bound v

(* Where the kind [forced] asks for sits among [kinds] (0 when it asks
   for none). *)
let forced_index kinds forced =
  let want =
    match forced with
    | None -> kinds.(0)
    | Some Scenario.FK_drop -> Fault.Drop
    | Some Scenario.FK_dup -> Fault.Duplicate
    | Some (Scenario.FK_delay _) -> Fault.Delay
  in
  let rec go i = if kinds.(i) = want then i else go (i + 1) in
  go 0

(* Interposition point for harness protocol messages. With message faults
   disabled this is a plain [send] after one boolean load — no strategy
   draw, so traces and golden digests are untouched. With them enabled it
   draws [nondet] (inject here?) and, when injecting, picks among the armed
   kinds / a delay distance with [nondet_int]; every decision is an
   ordinary recorded choice, so replay and shrinking see faults as just
   more schedule. A scenario that steers this link forces the same draws:
   the coin, the kind index when several kinds are armed, the latency
   index. *)
let send_faulty ctx target e =
  let rt = ctx.rt in
  live rt;
  if not rt.msg_faults_on || rt.faults_remaining <= 0 then send ctx target e
  else begin
    if Id.index target < 0 || Id.index target >= rt.n_machines then
      invalid_arg "Runtime.send_faulty: unknown target machine";
    let m = rt.machines.(Id.index target) in
    let halted = match m.status with Halted -> true | _ -> false in
    if halted then send ctx target e (* dropped anyway; no draw *)
    else begin
      (* placed after every no-draw short circuit above, so the scenario
         sees exactly the sends that draw *)
      let forced =
        Probe.pre_send rt.probe ~step:rt.steps ~time:(vtime rt)
          ~sender:(Id.index ctx.me.id) ~target:(Id.index target)
          ~budget:rt.faults_remaining e
      in
      if not (draw_bool ctx forced true) then begin
        Probe.sent rt.probe Scenario.Passed;
        send ctx target e
      end
      else begin
      let spec = rt.config.faults in
      let kinds = armed_kinds spec in
      let kind =
        if Array.length kinds = 1 then kinds.(0)
        else
          kinds.(draw_int ctx forced ~bound:(Array.length kinds)
                   (forced_index kinds forced))
      in
      match kind with
      | Fault.Drop ->
        Probe.sent rt.probe Scenario.Dropped;
        (* the dropped message never lands, but the injection point read
           the target's liveness: keep fault schedules conservatively
           ordered under reduction *)
        Probe.touch rt.probe ~target:(Id.index target);
        record_fault rt ~kind:"drop" ~target:m.id;
        if rt.log_on then
          logf rt "[%d] FAULT drop %s -> %s: %s" rt.steps
            (Id.to_string ctx.me.id) (Id.to_string target) (Event.to_string e)
      | Fault.Duplicate ->
        Probe.sent rt.probe Scenario.Dupped;
        record_fault rt ~kind:"dup" ~target:m.id;
        if rt.log_on then
          logf rt "[%d] FAULT dup %s -> %s: %s" rt.steps
            (Id.to_string ctx.me.id) (Id.to_string target) (Event.to_string e);
        send ctx target e;
        send ctx target e
      | Fault.Delay ->
        (* The latency's meaning depends on the time model. Clock off:
           [k] counts later deliveries (queue-position delay). Clock on:
           [k] is a latency duration — the message is armed on the clock
           and lands at [now + k] virtual time, so it races against timer
           deadlines rather than queue positions. One draw over
           [1..max_delay]. *)
        let lat = match forced with Some (Scenario.FK_delay l) -> l | _ -> 1 in
        let k = 1 + draw_int ctx forced ~bound:spec.max_delay (lat - 1) in
        Probe.sent rt.probe Scenario.Delayed;
        record_fault rt ~kind:"delay" ~target:m.id;
        if rt.log_on then
          logf rt "[%d] FAULT delay(%d) %s -> %s: %s" rt.steps k
            (Id.to_string ctx.me.id) (Id.to_string target) (Event.to_string e);
        in_flight rt ~after:k ~target:(Id.index target)
          ~sender:(Id.index ctx.me.id) e
      | Fault.Crash -> assert false (* not a message-fault kind *)
      end
    end
  end

(* Crash a persistent machine: its inbox and volatile state (the captured
   continuation) are discarded and it restarts as [Not_started] on the body
   its restart hook builds from durable state. The dropped continuation is
   never resumed; it is kept in [rt.crashed] so the end of the execution
   can release its fiber (see [release]). Crashing an already-halted
   machine is a no-op (it "crashed" after finishing — nothing to lose),
   which keeps fault drivers from resurrecting machines that failed or
   completed gracefully. *)
let crash ctx target =
  let rt = ctx.rt in
  live rt;
  if Id.index target < 0 || Id.index target >= rt.n_machines then
    invalid_arg "Runtime.crash: unknown target machine";
  if Id.index target = Id.index ctx.me.id then
    invalid_arg "Runtime.crash: a machine cannot crash itself";
  let m = rt.machines.(Id.index target) in
  match m.status with
  | Halted -> ()
  | Running -> assert false (* only one machine runs at a time: the caller *)
  | Not_started _ | Waiting _ | Serving _ ->
    (match m.persistent with
     | None -> invalid_arg "Runtime.crash: target has no restart hook"
     | Some restart ->
       (match m.status with
        | Waiting k -> rt.crashed <- k :: rt.crashed
        | _ -> ());
       Inbox.clear m.inbox;
       rt.delayed <-
         List.filter (fun d -> d.d_target <> Id.index target) rt.delayed;
       (match rt.clock with
        | Some ck -> Clock.cancel_target ck (Id.index target)
        | None -> ());
       m.status <- Not_started (restart ());
       mark_dirty rt m;
       Probe.crash rt.probe ~step:rt.steps ~time:(vtime rt)
         ~target:(Id.index target);
       record_fault rt ~kind:"crash" ~target:m.id;
       if rt.log_on then
         logf rt "[%d] FAULT crash %s (will restart)" rt.steps
           (Id.to_string m.id))

let fault_spec ctx = ctx.rt.config.faults
let fault_budget_left ctx = ctx.rt.faults_remaining

(* --- Scenario-steered crash ticks (for Fault_driver) --- *)

let scenario_crash_slots ctx = Probe.crash_slots ctx.rt.probe

(* The crash coin, then the pick among several victims: forced when the
   scenario steers, drawn otherwise. *)
let scenario_victim ctx victims =
  let rt = ctx.rt in
  live rt;
  let names = List.map Id.name victims in
  match Probe.crash_victim rt.probe ~step:rt.steps ~victims:names with
  | `Draw -> if nondet ctx then Some (choose ctx victims) else None
  | `Skip ->
    ignore (record_bool ctx false);
    None
  | `Crash i ->
    ignore (record_bool ctx true);
    let n = List.length victims in
    if n > 1 then ignore (record_int ctx ~bound:n i);
    Some (List.nth victims i)

(* --- Virtual time -------------------------------------------------------- *)

let clock_on ctx = ctx.rt.clock <> None

(* Draw-free observations: with the clock off, [now] degrades to the step
   count (a logical clock), so time-annotated harness logs stay meaningful
   in both modes. *)
let now ctx =
  match ctx.rt.clock with Some ck -> Clock.now ck | None -> ctx.rt.steps

(* Arm a timed delivery. Draw-free: the deadline is part of the model, not
   a scheduling choice — what the strategy controls is how the fired event
   interleaves with everything else once delivered. With the clock off the
   event is sent immediately (helpers stay usable, but gate new
   timeout/retry protocol paths on [clock_on] if clock-off executions must
   keep their exact pre-clock schedules). *)
let send_after ctx target e ~after =
  let rt = ctx.rt in
  live rt;
  if Option.is_none rt.clock then send ctx target e
  else begin
    if Id.index target < 0 || Id.index target >= rt.n_machines then
      invalid_arg "Runtime.send_after: unknown target machine";
    if after <= 0 then invalid_arg "Runtime.send_after: after must be positive";
    in_flight rt ~after ~target:(Id.index target)
      ~sender:(Id.index ctx.me.id) e;
    if rt.log_on then
      logf rt "[%d] %s -> %s in %d: %s (armed)" rt.steps
        (Id.to_string ctx.me.id) (Id.to_string target) after (Event.to_string e)
  end

(* Block this machine for [d] units of virtual time: arm a private wakeup
   on the clock and wait for exactly it. Other events arriving in the
   meantime stay queued (the filtered receive leaves them in order). While
   asleep the machine is idle, not deadlocked: its pending clock entry is
   what will make it progress. *)
let sleep ctx d =
  let rt = ctx.rt in
  live rt;
  match rt.clock with
  | None -> invalid_arg "Runtime.sleep: virtual time is off"
  | Some ck ->
    if d <= 0 then invalid_arg "Runtime.sleep: duration must be positive";
    not_in_handler ctx "Runtime.sleep";
    let tok = rt.next_wakeup in
    rt.next_wakeup <- tok + 1;
    let me = Id.index ctx.me.id in
    in_flight rt ~after:d ~target:me ~sender:me (Clock_wakeup tok);
    if rt.log_on then
      logf rt "[%d] %s sleeps %d (until t=%d)" rt.steps
        (Id.to_string ctx.me.id) d (Clock.now ck + d);
    match
      Effect.perform
        (Receive_eff
           (Some (function Clock_wakeup t -> t = tok | _ -> false)))
    with
    | Clock_wakeup _ -> ()
    | _ -> assert false

let sleep_until ctx t =
  let n = now ctx in
  if t > n then sleep ctx (t - n)

(* Draw-free observation: restarted machines use it to tell a live peer
   from a torn-down one (e.g. a cluster whose manager already halted). *)
let alive ctx id =
  let rt = ctx.rt in
  let i = Id.index id in
  i >= 0 && i < rt.n_machines
  && (match rt.machines.(i).status with Halted -> false | _ -> true)

(* Machines that [crash] may currently strike: created with a restart hook
   and not halted. Creation order, so a strategy's [nondet_int] pick over
   this list is stable under replay. *)
let crashable_machines ctx =
  let rt = ctx.rt in
  let acc = ref [] in
  for i = rt.n_machines - 1 downto 0 do
    let m = rt.machines.(i) in
    let alive = match m.status with Halted -> false | _ -> true in
    if Option.is_some m.persistent && alive && i <> Id.index ctx.me.id then
      acc := m.id :: !acc
  done;
  !acc

let update_monitor_temperature (rt : t) mon =
  if Monitor.is_hot mon then begin
    if Monitor.hot_since mon = None then
      Monitor.set_hot_since mon (Some rt.steps)
  end
  else Monitor.set_hot_since mon None

let notify ctx monitor_name e =
  let rt = ctx.rt in
  live rt;
  match List.find_opt (fun m -> Monitor.name m = monitor_name) rt.monitors with
  | None -> ()
  | Some mon ->
    Probe.notify rt.probe ~monitor:monitor_name;
    if rt.log_on then
      logf rt "[%d] %s notifies monitor %s: %s" rt.steps
        (Id.to_string ctx.me.id) monitor_name (Event.to_string e);
    Monitor.notify mon e;
    update_monitor_temperature rt mon;
    if rt.log_on then
      logf rt "[%d] monitor %s now in state %s%s" rt.steps monitor_name
        (Monitor.current mon)
        (if Monitor.is_hot mon then " (hot)" else "")

let assert_here ctx cond msg =
  live ctx.rt;
  if not cond then
    raise
      (Error.Bug
         (Error.Assertion_failure
            { machine = Id.to_string ctx.me.id; message = msg }))

let set_state_name ctx state =
  live ctx.rt;
  Probe.state ctx.rt.probe ~step:ctx.rt.steps ~machine:(Id.index ctx.me.id)
    state

let logging ctx = ctx.rt.log_on

let log ctx s =
  live ctx.rt;
  if ctx.rt.log_on then
    logf ctx.rt "[%d] %s: %s" ctx.rt.steps (Id.to_string ctx.me.id) s

let step_count ctx = ctx.rt.steps

(* --- Scheduler --- *)

(* Hand a message in flight to its target's inbox (or drop it if the
   target halted in the meantime, matching [send]); [on_clock] tells a
   fired clock entry from a released delayed message in the log. *)
let arrive rt ~on_clock ~target ~sender ~stamp e =
  let m = rt.machines.(target) in
  let via = if on_clock then "clock" else "delayed" in
  match m.status with
  | Halted ->
    if rt.log_on then
      logf rt "[%d] %s -> %s: %s (dropped: target halted)" rt.steps via
        (Id.to_string m.id) (Event.to_string e)
  | Not_started _ | Waiting _ | Serving _ | Running ->
    Probe.arrive rt.probe ~target ~stamp;
    Inbox.push m.inbox ~sender ~stamp e;
    mark_dirty rt m;
    if rt.log_on then
      logf rt "[%d] %s -> %s: %s (%s)" rt.steps via (Id.to_string m.id)
        (Event.to_string e) (if on_clock then "fired" else "delivered")

let deliver_delayed rt d =
  arrive rt ~on_clock:false ~target:d.d_target ~sender:d.d_sender
    ~stamp:d.d_stamp d.d_event

(* Called on every event delivery: age the delayed messages one delivery
   and release the due ones. *)
let tick_delayed rt =
  match rt.delayed with
  | [] -> ()
  | ds ->
    let due, still = List.partition (fun d -> d.d_countdown <= 1) ds in
    List.iter (fun d -> d.d_countdown <- d.d_countdown - 1) still;
    rt.delayed <- still;
    List.iter (deliver_delayed rt) due

(* When no machine is enabled but messages are still in flight, release
   them all: a delayed message models network latency, and latency cannot
   hold back a message forever once the system is otherwise quiescent —
   without this, every delay fault would read as a spurious deadlock.
   Release in remaining-countdown order (insertion order as the tie-break,
   via the stable sort): a message 1 delivery from landing must not arrive
   after one still 5 deliveries out just because it was delayed later. *)
let flush_delayed rt =
  let ds =
    List.stable_sort
      (fun a b -> compare a.d_countdown b.d_countdown)
      rt.delayed
  in
  rt.delayed <- [];
  List.iter (deliver_delayed rt) ds

let machine_enabled m =
  match m.status with
  | Not_started _ -> true
  | Waiting _ -> (
    match m.wait_pred with
    | None -> not (Inbox.is_empty m.inbox)
    | Some pred -> Inbox.exists m.inbox pred)
  | Serving _ -> not (Inbox.is_empty m.inbox)
  | Running | Halted -> false

(* Test hook: see [Enabled_audit] in the interface. *)
let audit_on = Atomic.make false
let audit_checks = Atomic.make 0

(* The slow reference: every machine scanned, none trusted to be clean. *)
let audit_enabled rt =
  let n = ref 0 in
  for i = 0 to rt.n_machines - 1 do
    if machine_enabled rt.machines.(i) then begin
      if !n >= rt.n_enabled || rt.enabled_buf.(!n) <> i then
        failwith
          (Printf.sprintf
             "Runtime: enabled set out of date at step %d (machine %d)"
             rt.steps i);
      incr n
    end
  done;
  if !n <> rt.n_enabled then
    failwith
      (Printf.sprintf "Runtime: enabled set out of date at step %d (%d vs %d)"
         rt.steps rt.n_enabled !n);
  Atomic.incr audit_checks

(* Refresh the machines marked dirty since the last call and keep the
   enabled prefix of [rt.enabled_buf] (ascending creation indices) up to
   date, moving only the machines whose enabledness flipped; returns how
   many are enabled. Allocation-free. *)
let compute_enabled rt =
  let buf = rt.enabled_buf in
  for j = 0 to rt.n_dirty - 1 do
    let i = Array.unsafe_get rt.dirty_q j in
    let m = Array.unsafe_get rt.machines i in
    m.dirty <- false;
    let e = machine_enabled m in
    if e <> m.enabled_cache then begin
      m.enabled_cache <- e;
      if e then begin
        (* insert, shifting the larger indices up *)
        let k = ref rt.n_enabled in
        while !k > 0 && Array.unsafe_get buf (!k - 1) > i do
          Array.unsafe_set buf !k (Array.unsafe_get buf (!k - 1));
          decr k
        done;
        Array.unsafe_set buf !k i;
        rt.n_enabled <- rt.n_enabled + 1
      end
      else begin
        let k = ref 0 in
        while Array.unsafe_get buf !k <> i do incr k done;
        Array.blit buf (!k + 1) buf !k (rt.n_enabled - !k - 1);
        rt.n_enabled <- rt.n_enabled - 1
      end
    end
  done;
  rt.n_dirty <- 0;
  if rt.audit then audit_enabled rt;
  rt.n_enabled

(* How a machine's step ends when its code raises, whether it ran in a
   fiber (the handler's exception branch) or as a served handler. *)
let raised rt m = function
  | _ when rt.releasing -> ()
  | Serve_exn h ->
    m.status <- Serving h;
    m.wait_pred <- None;
    mark_dirty rt m
  | Halt_exn ->
    m.status <- Halted;
    mark_dirty rt m;
    Inbox.clear m.inbox;
    if rt.log_on then logf rt "[%d] %s halted" rt.steps (Id.to_string m.id)
  | Error.Bug kind ->
    m.status <- Halted;
    mark_dirty rt m;
    set_bug rt kind
  | e ->
    m.status <- Halted;
    mark_dirty rt m;
    set_bug rt
      (Error.Machine_exception
         { machine = Id.to_string m.id; exn = Printexc.to_string e })

(* Run [m] until it blocks, halts, serves, or finishes. The deep handler
   persists across resumptions, so exceptions and returns are funnelled
   here no matter how many receives the machine has performed. *)
let start_machine rt m =
  let ctx = { rt; me = m } in
  (* The receive effect's branch, built once per machine start rather than
     once per receive. *)
  let on_receive =
    Some
      (fun (k : (Event.t, unit) Effect.Deep.continuation) ->
        m.status <- Waiting k;
        mark_dirty rt m)
  in
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc =
        (fun () ->
          if not rt.releasing then begin
            m.status <- Halted;
            mark_dirty rt m;
            Inbox.clear m.inbox;
            if rt.log_on then
              logf rt "[%d] %s finished" rt.steps (Id.to_string m.id)
          end);
      exnc = raised rt m;
      effc =
        (fun (type a) (eff : a Effect.t) :
             ((a, unit) Effect.Deep.continuation -> unit) option ->
          match eff with
          | Receive_eff pred ->
            m.wait_pred <- pred;
            on_receive
          | _ -> None);
    }
  in
  match m.status with
  | Not_started body ->
    m.status <- Running;
    mark_dirty rt m;
    Probe.start rt.probe ~machine:(Id.index m.id);
    Effect.Deep.match_with (fun () -> body ctx) () handler
  | Waiting _ | Serving _ | Running | Halted -> assert false

(* Dequeue the event a picked waiting or serving machine receives and
   record the delivery. *)
let deliver rt m =
  let i = match m.wait_pred with None -> 0 | Some p -> Inbox.find m.inbox p in
  (* the scheduler only picks enabled machines *)
  if i < 0 || i >= Inbox.length m.inbox then assert false;
  let sender = Inbox.sender_at m.inbox i in
  let stamp = Inbox.stamp_at m.inbox i in
  let e = Inbox.take m.inbox i in
  mark_dirty rt m;
  (* stamped with the deciding scheduling point (rt.steps was already
     incremented), so a scenario's checker sees window state exactly as
     its observer's pruning decision did *)
  Probe.deliver rt.probe ~step:(rt.steps - 1) ~time:(vtime rt) ~sender
    ~receiver:(Id.index m.id) ~stamp e;
  if rt.log_on then
    logf rt "[%d] %s dequeues %s" rt.steps (Id.to_string m.id)
      (Event.to_string e);
  tick_delayed rt;
  e

let resume_machine rt m =
  match m.status with
  | Waiting k ->
    let e = deliver rt m in
    m.status <- Running;
    Effect.Deep.continue k e
  | Serving h -> (
    (* the machine stays [Serving] while its handler runs, and a
       returning handler leaves it so; anything raised ends the step as
       it would a fiber's *)
    match h (deliver rt m) with
    | () -> ()
    | exception exn -> raised rt m exn)
  | Not_started _ -> start_machine rt m
  | Running | Halted -> assert false

(* How an execution ran out of work, which decides how the end state is
   judged:
   - [Quiescent]: nothing can ever run again — deadlock detection applies
     and a hot liveness monitor is immediately a violation.
   - [Step_bound]: the step bound cut an "infinite" execution — no
     deadlock (machines may merely not have been scheduled), and liveness
     requires a grace period of continuous heat.
   - [Time_bound]: the virtual-time horizon cut it (the only remaining
     work was clock entries beyond [max_time]) — same bound-cut liveness
     caution, but graced against the steps actually taken, since a
     horizon-bound execution typically ends far below [max_steps]. *)
type ending = Quiescent | Step_bound | Time_bound

let check_end_of_execution (rt : t) ~ending =
  if rt.bug = None then begin
    (* A hot liveness monitor at the end of a bounded "infinite" execution,
       or when the system can make no further progress, is a liveness
       violation (§2.5). At the bound we additionally require the monitor to
       have been continuously hot for a grace period, so executions that the
       bound merely cut mid-progress do not count as violations. *)
    let at_bound = ending <> Quiescent in
    let grace =
      match ending with
      | Quiescent -> 0
      | Step_bound ->
        Option.value rt.config.liveness_grace
          ~default:(rt.config.max_steps / 2)
      | Time_bound ->
        Option.value rt.config.liveness_grace ~default:(rt.steps / 2)
    in
    let stuck mon =
      Monitor.is_hot mon
      &&
      match Monitor.hot_since mon with
      | Some since -> rt.steps - since >= grace
      | None -> false
    in
    match List.find_opt stuck rt.monitors with
    | Some mon ->
      set_bug rt
        (Error.Liveness_violation
           {
             monitor = Monitor.name mon;
             hot_since = Option.value (Monitor.hot_since mon) ~default:0;
             state = Monitor.current mon;
           })
    | None ->
      if (not at_bound) && rt.config.deadlock_is_bug then begin
        let blocked = ref [] in
        for i = rt.n_machines - 1 downto 0 do
          match rt.machines.(i).status with
          | Waiting _ | Serving _ ->
            blocked := Id.to_string rt.machines.(i).id :: !blocked
          | Not_started _ | Running | Halted -> ()
        done;
        if !blocked <> [] then set_bug rt (Error.Deadlock { blocked = !blocked })
      end
  end

(* End an execution's fibers. OCaml keeps the stack of a continuation
   that is never resumed for as long as the continuation is reachable,
   and a finished execution's machines are not garbage until the caller
   drops the result of [execute]: without this, every machine still
   blocked in [receive] (and every continuation [crash] took) would pin
   its stack across a whole hunt. A served machine has no fiber to end.
   Every machine is marked halted first,
   then each fiber is discontinued with [Released]. Its finalisers run,
   but any runtime call they make raises [Released] again before it
   records anything, and the handler swallows whatever escapes: the
   result built before this call is final. *)
let release rt =
  rt.releasing <- true;
  let waiting = ref rt.crashed in
  rt.crashed <- [];
  for i = rt.n_machines - 1 downto 0 do
    let m = rt.machines.(i) in
    (match m.status with Waiting k -> waiting := k :: !waiting | _ -> ());
    m.status <- Halted
  done;
  List.iter (fun k -> Effect.Deep.discontinue k Released) !waiting

(* Extra steps granted when delayed messages are flushed at the step
   bound: enough for the cut-off messages (and their immediate
   consequences) to be processed before the liveness verdict, while
   keeping the overrun bounded for harnesses that never quiesce. *)
let drain_budget (config : config) = max 64 (config.max_steps / 16)

(* The event machine [i] would dequeue next, for a scenario's order
   clauses. *)
let peek rt i =
  if i < 0 || i >= rt.n_machines then None
  else
    match rt.machines.(i).status with
    | Waiting _ | Serving _ ->
      let matches =
        Option.value rt.machines.(i).wait_pred ~default:(fun _ -> true)
      in
      Option.map Event.name (Inbox.peek_first rt.machines.(i).inbox matches)
    | _ -> None

let execute config strategy ~monitors ~name body =
  let rt =
    {
      config;
      log_on = config.collect_log;
      msg_faults_on = Fault.message_faults config.faults;
      deadline_at = Option.value config.deadline ~default:infinity;
      check_deadline = Option.is_some config.deadline;
      strategy;
      probe =
        Probe.make ~coverage:config.coverage ~hb:config.hb
          ~scenario:config.scenario;
      monitors;
      machines = [||];
      n_machines = 0;
      enabled_buf = [||];
      n_enabled = 0;
      dirty_q = [||];
      n_dirty = 0;
      audit = Atomic.get audit_on;
      steps = 0;
      trace = Trace.Builder.create ();
      log_rev = [];
      bug = None;
      bug_step = 0;
      faults_remaining = config.faults.Fault.budget;
      faults_injected = 0;
      delayed = [];
      timed_out = false;
      clock = Option.map (fun (_ : Clock.config) -> Clock.create ()) config.clock;
      horizon =
        (match config.clock with Some c -> c.Clock.max_time | None -> 0);
      step_limit = config.max_steps;
      draining = false;
      next_wakeup = 0;
      crashed = [];
      releasing = false;
    }
  in
  (* order-clause enforcement peeks at what a machine would dequeue next;
     installed before the root machine so creation hooks and peeks never
     race the machine array *)
  Probe.set_peek rt.probe peek rt;
  ignore (add_machine rt ~parent:(-1) ~name body);
  let rec loop () =
    if rt.bug <> None then ()
    else if
      (* Deadline check every 64 steps (one land+compare per step when no
         deadline is set): a run over its time budget aborts the current
         execution cleanly instead of overshooting arbitrarily. *)
      rt.check_deadline
      && rt.steps land 63 = 0
      && Unix.gettimeofday () > rt.deadline_at
    then rt.timed_out <- true
    else if rt.steps >= rt.step_limit then begin
      if (not rt.draining) && rt.delayed <> [] then begin
        (* Messages still delayed in flight when the bound cuts the
           execution must not decide the liveness verdict: flush them and
           grant a bounded drain so their handlers run (a hot monitor one
           in-flight message away from cooling is not a violation). Fault
           injection stops — the execution is ending, and a fresh delay
           injected mid-drain would chase its own tail. *)
        rt.draining <- true;
        rt.faults_remaining <- 0;
        flush_delayed rt;
        rt.step_limit <- rt.steps + drain_budget config;
        loop ()
      end
      else check_end_of_execution rt ~ending:Step_bound
    end
    else begin
      let n = compute_enabled rt in
      let n =
        (* quiescent but messages still in flight: release the delays *)
        if n = 0 && rt.delayed <> [] then begin
          flush_delayed rt;
          compute_enabled rt
        end
        else n
      in
      if n = 0 then begin
        match rt.clock with
        | None -> check_end_of_execution rt ~ending:Quiescent
        | Some ck ->
          (* Quiescent with a clock: advance virtual time to the next
             armed entry and fire it — repeatedly, since an entry can land
             on a halted machine and enable nothing. Advancing draws
             nothing from the strategy, so timestamps are a deterministic
             function of the schedule. *)
          let rec advance () =
            match Clock.pop_due ck ~horizon:rt.horizon with
            | Some { Clock.target; sender; stamp; event; _ } ->
              arrive rt ~on_clock:true ~target ~sender ~stamp event;
              if compute_enabled rt = 0 then advance () else `Work
            | None -> if Clock.is_empty ck then `Idle else `Out_of_time
          in
          (match advance () with
           | `Work -> loop ()
           | `Idle -> check_end_of_execution rt ~ending:Quiescent
           | `Out_of_time -> check_end_of_execution rt ~ending:Time_bound)
      end
      else begin
        (match
           Probe.schedule rt.probe strategy ~enabled:rt.enabled_buf ~n
             ~step:rt.steps
         with
         | exception Error.Bug kind -> set_bug rt kind
         | idx ->
           Trace.Builder.add_schedule rt.trace idx;
           rt.steps <- rt.steps + 1;
           resume_machine rt rt.machines.(idx));
        loop ()
      end
    end
  in
  loop ();
  let result =
    {
      bug = rt.bug;
      bug_step = (if rt.bug = None then rt.steps else rt.bug_step);
      steps = rt.steps;
      choices = Trace.Builder.finish rt.trace;
      log = List.rev rt.log_rev;
      timed_out = rt.timed_out;
      faults_injected = rt.faults_injected;
      final_time = vtime rt;
    }
  in
  release rt;
  result

module Enabled_audit = struct
  let set on =
    Atomic.set audit_checks 0;
    Atomic.set audit_on on

  let checks () = Atomic.get audit_checks
end
