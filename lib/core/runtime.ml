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

(* A machine blocked on [receive] is a captured continuation expecting the
   dequeued event. The whole handled computation produces [unit]: both the
   effect branch (after stashing the continuation) and the return/exception
   branches just fall back to the scheduler. *)
type status =
  | Not_started of (ctx -> unit)
  | Waiting of (Event.t, unit) Effect.Deep.continuation
      (* the receive's filter, if any, is in [machine.wait_pred] *)
  | Running
  | Halted

and machine = {
  id : Id.t;
  inbox : Inbox.t;
  mutable status : status;
  mutable state_name : string;
      (* current declared state ("-" for plain machines); feeds the
         receiver-state component of coverage triples *)
  name_sym : int;
  mutable state_sym : int;
      (* [Id.name id] and [state_name] as symbols of [config.coverage]
         (-1 when coverage is off): interned once, at creation and at each
         state change, so recording a delivery hashes no string *)
  mutable enabled_cache : bool;
      (* last computed [machine_enabled], valid while not [dirty]. A
         waiting machine's enabledness is monotone between status changes
         (events are only ever added to its inbox until it runs), so the
         cache stays valid until a send or a status transition marks it
         dirty — which is what keeps filtered receives ([wait_pred =
         Some pred]) from re-running [Inbox.exists pred] every step. *)
  mutable dirty : bool;
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
  monitors : Monitor.t list;
  mutable machines : machine array;
  mutable n_machines : int;
  mutable enabled_buf : int array;
      (* scratch for the enabled prefix passed to the strategy; reused
         across steps, grown with the machine array *)
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
  dash_sym : int;  (* the symbol of state "-" in [config.coverage], or -1 *)
  horizon : int;  (* config.clock.max_time; 0 when the clock is off *)
  mutable step_limit : int;
      (* the effective step bound: starts at [config.max_steps] and is
         extended exactly once when cut-off delayed messages are flushed at
         the bound, granting a bounded drain before the liveness verdict *)
  mutable draining : bool;
  mutable next_wakeup : int;  (* fresh tokens for [sleep] wakeup events *)
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

let set_bug (rt : t) kind =
  if rt.bug = None then begin
    rt.bug <- Some kind;
    rt.bug_step <- rt.steps;
    if rt.log_on then
      logf rt "[%d] BUG: %s" rt.steps (Error.kind_to_string kind)
  end

let mark_dirty m = m.dirty <- true

let add_machine ?persistent rt ~name body =
  if rt.n_machines = Array.length rt.machines then begin
    let bigger =
      Array.make (max 8 (2 * rt.n_machines))
        { id = Id.make ~index:(-1) ~name:"<pad>";
          inbox = Inbox.create ();
          status = Halted;
          state_name = "-";
          name_sym = -1;
          state_sym = -1;
          enabled_cache = false;
          dirty = false;
          wait_pred = None;
          persistent = None }
    in
    Array.blit rt.machines 0 bigger 0 rt.n_machines;
    rt.machines <- bigger;
    rt.enabled_buf <- Array.make (Array.length bigger) 0
  end;
  let id = Id.make ~index:rt.n_machines ~name in
  let name_sym =
    match rt.config.coverage with Some cov -> Coverage.sym cov name | None -> -1
  in
  let m =
    { id; inbox = Inbox.create (); status = Not_started body; state_name = "-";
      name_sym; state_sym = rt.dash_sym; enabled_cache = true; dirty = false;
      wait_pred = None; persistent }
  in
  rt.machines.(rt.n_machines) <- m;
  rt.n_machines <- rt.n_machines + 1;
  (match rt.config.coverage with
   | Some cov -> Coverage.visit_state_sym cov ~machine:name_sym ~state:rt.dash_sym
   | None -> ());
  (match rt.config.scenario with
   | Some o -> Scenario.Obs.on_create o ~index:(rt.n_machines - 1) ~name
   | None -> ());
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
  let m = add_machine ?persistent ctx.rt ~name body in
  (match ctx.rt.config.hb with
   | Some h ->
     Hb.on_create h ~parent:(Id.index ctx.me.id) ~child:(Id.index m.id)
   | None -> ());
  if ctx.rt.log_on then
    logf ctx.rt "[%d] %s creates %s" ctx.rt.steps (Id.to_string ctx.me.id)
      (Id.to_string m.id);
  m.id

let send ctx target e =
  let rt = ctx.rt in
  if Id.index target < 0 || Id.index target >= rt.n_machines then
    invalid_arg "Runtime.send: unknown target machine";
  let m = rt.machines.(Id.index target) in
  (match m.status with
   | Halted ->
     if rt.log_on then
       logf rt "[%d] %s -> %s: %s (dropped: target halted)" rt.steps
         (Id.to_string ctx.me.id) (Id.to_string target) (Event.to_string e)
   | Not_started _ | Waiting _ | Running ->
     let stamp =
       match rt.config.hb with
       | Some h -> Hb.on_send h ~target:(Id.index target)
       | None -> -1
     in
     Inbox.push m.inbox ~sender:(Id.index ctx.me.id) ~stamp e;
     mark_dirty m;
     if rt.log_on then
       logf rt "[%d] %s -> %s: %s" rt.steps (Id.to_string ctx.me.id)
         (Id.to_string target) (Event.to_string e))

let send_unless_pending ?same ctx target e =
  let rt = ctx.rt in
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
    (match rt.config.hb with
     | Some h -> Hb.on_touch h ~target:(Id.index target)
     | None -> ());
    if rt.log_on then
      logf rt "[%d] %s -> %s: %s (coalesced)" rt.steps
        (Id.to_string ctx.me.id) (Id.to_string target) (Event.to_string e)
  end
  else send ctx target e

let receive _ctx = Effect.perform receive_any

let receive_where _ctx pred = Effect.perform (Receive_eff (Some pred))

let nondet ctx =
  let rt = ctx.rt in
  let b = rt.strategy.next_bool ~step:rt.steps in
  Trace.Builder.add_bool rt.trace b;
  (match rt.config.hb with Some h -> Hb.on_bool h b | None -> ());
  (match rt.config.coverage with
   | Some cov -> Coverage.branch_bool_sym cov ~machine:ctx.me.name_sym b
   | None -> ());
  if rt.log_on then
    logf rt "[%d] %s nondet -> %b" rt.steps (Id.to_string ctx.me.id) b;
  b

let nondet_int ctx bound =
  if bound <= 0 then invalid_arg "Runtime.nondet_int: bound must be positive";
  let rt = ctx.rt in
  let i = rt.strategy.next_int ~bound ~step:rt.steps in
  Trace.Builder.add_int rt.trace i;
  (match rt.config.hb with Some h -> Hb.on_int h i | None -> ());
  (match rt.config.coverage with
   | Some cov -> Coverage.branch_int_sym cov ~machine:ctx.me.name_sym ~bound i
   | None -> ());
  if rt.log_on then
    logf rt "[%d] %s nondet_int(%d) -> %d" rt.steps (Id.to_string ctx.me.id)
      bound i;
  i

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
   the coverage [history] family. *)
let history_point ctx point =
  match ctx.rt.config.coverage with
  | Some cov -> Coverage.history cov ~point
  | None -> ()

(* --- Fault injection --- *)

let record_fault rt ~kind ~target =
  rt.faults_remaining <- rt.faults_remaining - 1;
  rt.faults_injected <- rt.faults_injected + 1;
  match rt.config.coverage with
  | Some cov -> Coverage.fault cov ~kind ~target:(Id.name target)
  | None -> ()

(* Interposition point for harness protocol messages. With message faults
   disabled this is a plain [send] after one boolean load — no strategy
   draw, so traces and golden digests are untouched. With them enabled it
   draws [nondet] (inject here?) and, when injecting, picks among the armed
   kinds / a delay distance with [nondet_int]; every decision is an
   ordinary recorded choice, so replay and shrinking see faults as just
   more schedule. *)
let send_faulty ctx target e =
  let rt = ctx.rt in
  if not rt.msg_faults_on || rt.faults_remaining <= 0 then send ctx target e
  else begin
    if Id.index target < 0 || Id.index target >= rt.n_machines then
      invalid_arg "Runtime.send_faulty: unknown target machine";
    let m = rt.machines.(Id.index target) in
    let halted = match m.status with Halted -> true | _ -> false in
    if halted then send ctx target e (* dropped anyway; no draw *)
    else begin
      (* Scenario marker: annotate the semantic purpose of the imminent
         fault draws (coin, kind, latency) so a scenario wrapper can force
         them on constrained links. Placed after every no-draw short
         circuit above, so a marker is never stale. Draw-free. *)
      (match rt.config.scenario with
       | Some o ->
         Scenario.Obs.pre_send o ~step:rt.steps
           ~time:(match rt.clock with Some ck -> Clock.now ck | None -> 0)
           ~sender:(Id.index ctx.me.id) ~target:(Id.index target)
           ~event:(Event.name e) ~budget:rt.faults_remaining
       | None -> ());
      if not (nondet ctx) then send ctx target e
      else begin
      let spec = rt.config.faults in
      let kinds =
        (if spec.drop then [ Fault.Drop ] else [])
        @ (if spec.duplicate then [ Fault.Duplicate ] else [])
        @ if spec.delay then [ Fault.Delay ] else []
      in
      let kind =
        match kinds with
        | [ k ] -> k
        | ks -> List.nth ks (nondet_int ctx (List.length ks))
      in
      match kind with
      | Fault.Drop ->
        (* the dropped message never lands, but the injection point read
           the target's liveness: keep fault schedules conservatively
           ordered under reduction *)
        (match rt.config.hb with
         | Some h -> Hb.on_touch h ~target:(Id.index target)
         | None -> ());
        record_fault rt ~kind:"drop" ~target:m.id;
        if rt.log_on then
          logf rt "[%d] FAULT drop %s -> %s: %s" rt.steps
            (Id.to_string ctx.me.id) (Id.to_string target) (Event.to_string e)
      | Fault.Duplicate ->
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
           deadlines rather than queue positions.

           Uniform keeps the historical single draw over [1..max_delay]
           (existing fault traces and golden digests depend on it).
           Bimodal first draws the link's mode, then a latency within the
           mode: fast links land in 1..2, slow ones in
           [2*max_delay .. 3*max_delay - 1] — a long-tail far past any
           uniform draw, so timeouts race both narrowly and hopelessly. *)
        let k =
          match spec.delay_dist with
          | Fault.Uniform -> 1 + nondet_int ctx spec.max_delay
          | Fault.Bimodal ->
            if nondet ctx then 1 + nondet_int ctx 2
            else (2 * spec.max_delay) + nondet_int ctx spec.max_delay
        in
        record_fault rt ~kind:"delay" ~target:m.id;
        if rt.log_on then
          logf rt "[%d] FAULT delay(%d) %s -> %s: %s" rt.steps k
            (Id.to_string ctx.me.id) (Id.to_string target) (Event.to_string e);
        let stamp =
          match rt.config.hb with
          | Some h -> Hb.on_send_delayed h ~target:(Id.index target)
          | None -> -1
        in
        (match rt.clock with
         | Some ck ->
           ignore
             (Clock.arm ck ~after:k ~target:(Id.index target)
                ~sender:(Id.index ctx.me.id) ~stamp e)
         | None ->
           rt.delayed <-
             rt.delayed
             @ [ { d_target = Id.index target; d_sender = Id.index ctx.me.id;
                   d_stamp = stamp; d_event = e; d_countdown = k } ])
      | Fault.Crash -> assert false (* not a message-fault kind *)
      end
    end
  end

(* Crash a persistent machine: its inbox and volatile state (the captured
   continuation) are discarded and it restarts as [Not_started] on the body
   its restart hook builds from durable state. The dropped continuation is
   never resumed nor discontinued — its fiber is simply abandoned to the
   GC, which is safe because crashed machines hold no external resources.
   Crashing an already-halted machine is a no-op (it "crashed" after
   finishing — nothing to lose), which keeps fault drivers from
   resurrecting machines that failed or completed gracefully. *)
let crash ctx target =
  let rt = ctx.rt in
  if Id.index target < 0 || Id.index target >= rt.n_machines then
    invalid_arg "Runtime.crash: unknown target machine";
  if Id.index target = Id.index ctx.me.id then
    invalid_arg "Runtime.crash: a machine cannot crash itself";
  let m = rt.machines.(Id.index target) in
  match m.status with
  | Halted -> ()
  | Running -> assert false (* only one machine runs at a time: the caller *)
  | Not_started _ | Waiting _ ->
    (match m.persistent with
     | None -> invalid_arg "Runtime.crash: target has no restart hook"
     | Some restart ->
       Inbox.clear m.inbox;
       rt.delayed <-
         List.filter (fun d -> d.d_target <> Id.index target) rt.delayed;
       (match rt.clock with
        | Some ck -> Clock.cancel_target ck (Id.index target)
        | None -> ());
       m.status <- Not_started (restart ());
       m.state_name <- "-";
       m.state_sym <- rt.dash_sym;
       mark_dirty m;
       (match rt.config.hb with
        | Some h -> Hb.on_crash h ~target:(Id.index target)
        | None -> ());
       (match rt.config.scenario with
        | Some o ->
          Scenario.Obs.on_crash o ~step:rt.steps
            ~time:(match rt.clock with Some ck -> Clock.now ck | None -> 0)
            ~target:(Id.index target)
        | None -> ());
       record_fault rt ~kind:"crash" ~target:m.id;
       if rt.log_on then
         logf rt "[%d] FAULT crash %s (will restart)" rt.steps
           (Id.to_string m.id))

let fault_spec ctx = ctx.rt.config.faults
let fault_budget_left ctx = ctx.rt.faults_remaining

(* --- Scenario steering (draw-free observations for Fault_driver) --- *)

let scenario_crash_steering ctx =
  match ctx.rt.config.scenario with
  | Some o -> Scenario.Obs.crash_steering o
  | None -> false

let scenario_crash_slots ctx =
  match ctx.rt.config.scenario with
  | Some o -> Scenario.Obs.crash_slots o
  | None -> 0

let scenario_crash_tick ctx ~victims =
  match ctx.rt.config.scenario with
  | Some o -> Scenario.Obs.pre_crash_tick o ~step:ctx.rt.steps ~victims
  | None -> ()

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
  match rt.clock with
  | None -> send ctx target e
  | Some ck ->
    if Id.index target < 0 || Id.index target >= rt.n_machines then
      invalid_arg "Runtime.send_after: unknown target machine";
    if after <= 0 then invalid_arg "Runtime.send_after: after must be positive";
    let stamp =
      match rt.config.hb with
      | Some h -> Hb.on_send_delayed h ~target:(Id.index target)
      | None -> -1
    in
    ignore
      (Clock.arm ck ~after ~target:(Id.index target)
         ~sender:(Id.index ctx.me.id) ~stamp e);
    if rt.log_on then
      logf rt "[%d] %s -> %s in %d: %s (armed)" rt.steps
        (Id.to_string ctx.me.id) (Id.to_string target) after (Event.to_string e)

(* Block this machine for [d] units of virtual time: arm a private wakeup
   on the clock and wait for exactly it. Other events arriving in the
   meantime stay queued (the filtered receive leaves them in order). While
   asleep the machine is idle, not deadlocked: its pending clock entry is
   what will make it progress. *)
let sleep ctx d =
  let rt = ctx.rt in
  match rt.clock with
  | None -> invalid_arg "Runtime.sleep: virtual time is off"
  | Some ck ->
    if d <= 0 then invalid_arg "Runtime.sleep: duration must be positive";
    let stamp =
      match rt.config.hb with
      | Some h -> Hb.on_send_delayed h ~target:(Id.index ctx.me.id)
      | None -> -1
    in
    let tok = rt.next_wakeup in
    rt.next_wakeup <- tok + 1;
    ignore
      (Clock.arm ck ~after:d ~target:(Id.index ctx.me.id)
         ~sender:(Id.index ctx.me.id) ~stamp (Clock_wakeup tok));
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
  match List.find_opt (fun m -> Monitor.name m = monitor_name) rt.monitors with
  | None -> ()
  | Some mon ->
    (match rt.config.hb with
     | Some h -> Hb.on_notify h ~monitor:monitor_name
     | None -> ());
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
  if not cond then
    raise
      (Error.Bug
         (Error.Assertion_failure
            { machine = Id.to_string ctx.me.id; message = msg }))

let set_state_name ctx state =
  let m = ctx.me in
  let same = m.state_name == state in
  m.state_name <- state;
  (match ctx.rt.config.scenario with
   | Some o ->
     Scenario.Obs.on_state o ~step:ctx.rt.steps ~index:(Id.index m.id) ~state
   | None -> ());
  match ctx.rt.config.coverage with
  | Some cov ->
    if not same then m.state_sym <- Coverage.sym cov state;
    Coverage.visit_state_sym cov ~machine:m.name_sym ~state:m.state_sym
  | None -> ()

let logging ctx = ctx.rt.log_on

let log ctx s =
  if ctx.rt.log_on then
    logf ctx.rt "[%d] %s: %s" ctx.rt.steps (Id.to_string ctx.me.id) s

let step_count ctx = ctx.rt.steps

(* --- Scheduler --- *)

(* Hand a delayed message to its target's inbox (or drop it if the target
   halted in the meantime, matching [send]). *)
let deliver_delayed rt d =
  let m = rt.machines.(d.d_target) in
  match m.status with
  | Halted ->
    if rt.log_on then
      logf rt "[%d] delayed -> %s: %s (dropped: target halted)" rt.steps
        (Id.to_string m.id) (Event.to_string d.d_event)
  | Not_started _ | Waiting _ | Running ->
    (match rt.config.hb with
     | Some h when d.d_stamp >= 0 ->
       Hb.on_delayed_delivery h ~target:d.d_target ~msg:d.d_stamp
     | _ -> ());
    Inbox.push m.inbox ~sender:d.d_sender ~stamp:d.d_stamp d.d_event;
    mark_dirty m;
    if rt.log_on then
      logf rt "[%d] delayed -> %s: %s (delivered)" rt.steps (Id.to_string m.id)
        (Event.to_string d.d_event)

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

(* Hand a fired clock entry to its target's inbox; mirrors
   [deliver_delayed], including the drop-on-halted rule. *)
let deliver_clock rt (e : Clock.entry) =
  let m = rt.machines.(e.Clock.target) in
  match m.status with
  | Halted ->
    if rt.log_on then
      logf rt "[%d] clock -> %s: %s (dropped: target halted)" rt.steps
        (Id.to_string m.id) (Event.to_string e.Clock.event)
  | Not_started _ | Waiting _ | Running ->
    (match rt.config.hb with
     | Some h when e.Clock.stamp >= 0 ->
       Hb.on_delayed_delivery h ~target:e.Clock.target ~msg:e.Clock.stamp
     | _ -> ());
    Inbox.push m.inbox ~sender:e.Clock.sender ~stamp:e.Clock.stamp
      e.Clock.event;
    mark_dirty m;
    if rt.log_on then
      logf rt "[%d] clock -> %s: %s (fired)" rt.steps (Id.to_string m.id)
        (Event.to_string e.Clock.event)

let machine_enabled m =
  match m.status with
  | Not_started _ -> true
  | Waiting _ -> (
    match m.wait_pred with
    | None -> not (Inbox.is_empty m.inbox)
    | Some pred -> Inbox.exists m.inbox pred)
  | Running | Halted -> false

(* Refresh dirty machines and compact the enabled creation indices
   (ascending) into [rt.enabled_buf]; returns how many are enabled.
   Allocation-free: the buffer is reused across steps. *)
let compute_enabled rt =
  let buf = rt.enabled_buf in
  let n = ref 0 in
  for i = 0 to rt.n_machines - 1 do
    let m = Array.unsafe_get rt.machines i in
    if m.dirty then begin
      m.enabled_cache <- machine_enabled m;
      m.dirty <- false
    end;
    if m.enabled_cache then begin
      Array.unsafe_set buf !n i;
      incr n
    end
  done;
  !n

(* Run [m] until it blocks, halts, or finishes. The deep handler persists
   across resumptions, so exceptions and returns are funnelled here no
   matter how many receives the machine has performed. *)
let start_machine rt m =
  let ctx = { rt; me = m } in
  (* The receive effect's branch, built once per machine start rather than
     once per receive. *)
  let on_receive =
    Some
      (fun (k : (Event.t, unit) Effect.Deep.continuation) ->
        m.status <- Waiting k;
        mark_dirty m)
  in
  let handler : (unit, unit) Effect.Deep.handler =
    {
      retc =
        (fun () ->
          m.status <- Halted;
          mark_dirty m;
          Inbox.clear m.inbox;
          if rt.log_on then
            logf rt "[%d] %s finished" rt.steps (Id.to_string m.id));
      exnc =
        (fun e ->
          match e with
          | Halt_exn ->
            m.status <- Halted;
            mark_dirty m;
            Inbox.clear m.inbox;
            if rt.log_on then
              logf rt "[%d] %s halted" rt.steps (Id.to_string m.id)
          | Error.Bug kind ->
            m.status <- Halted;
            mark_dirty m;
            set_bug rt kind
          | e ->
            m.status <- Halted;
            mark_dirty m;
            set_bug rt
              (Error.Machine_exception
                 {
                   machine = Id.to_string m.id;
                   exn = Printexc.to_string e;
                 }));
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
    mark_dirty m;
    (match rt.config.hb with
     | Some h -> Hb.begin_step h ~machine:(Id.index m.id) ~msg:(-1)
     | None -> ());
    Effect.Deep.match_with (fun () -> body ctx) () handler
  | Waiting _ | Running | Halted -> assert false

let resume_machine rt m =
  match m.status with
  | Waiting k ->
    let i =
      match m.wait_pred with None -> 0 | Some p -> Inbox.find m.inbox p
    in
    (* the scheduler only picks enabled machines *)
    if i < 0 || i >= Inbox.length m.inbox then assert false;
    let sender = Inbox.sender_at m.inbox i in
    let stamp = Inbox.stamp_at m.inbox i in
    let e = Inbox.take m.inbox i in
    m.status <- Running;
    mark_dirty m;
    (match rt.config.hb with
     | Some h -> Hb.begin_step h ~machine:(Id.index m.id) ~msg:stamp
     | None -> ());
    (match rt.config.coverage with
     | Some cov ->
       let sender =
         if sender >= 0 && sender < rt.n_machines then
           rt.machines.(sender).name_sym
         else Coverage.sym cov "<external>"
       in
       Coverage.deliver_sym cov ~sender ~event:(Coverage.event_sym cov e)
         ~receiver:m.name_sym ~state:m.state_sym
     | None -> ());
    (match rt.config.scenario with
     | Some o ->
       (* stamped with the deciding scheduling point (rt.steps was
          already incremented), so the checker sees window state
          exactly as the wrapper's pruning decision did *)
       Scenario.Obs.on_deliver o ~step:(rt.steps - 1)
         ~time:(match rt.clock with Some ck -> Clock.now ck | None -> 0)
         ~sender ~receiver:(Id.index m.id) ~event:(Event.name e)
     | None -> ());
    if rt.log_on then
      logf rt "[%d] %s dequeues %s" rt.steps (Id.to_string m.id)
        (Event.to_string e);
    tick_delayed rt;
    Effect.Deep.continue k e
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
          | Waiting _ -> blocked := Id.to_string rt.machines.(i).id :: !blocked
          | Not_started _ | Running | Halted -> ()
        done;
        if !blocked <> [] then set_bug rt (Error.Deadlock { blocked = !blocked })
      end
  end

(* Extra steps granted when delayed messages are flushed at the step
   bound: enough for the cut-off messages (and their immediate
   consequences) to be processed before the liveness verdict, while
   keeping the overrun bounded for harnesses that never quiesce. *)
let drain_budget (config : config) = max 64 (config.max_steps / 16)

let execute config strategy ~monitors ~name body =
  let rt =
    {
      config;
      log_on = config.collect_log;
      msg_faults_on = Fault.message_faults config.faults;
      deadline_at = Option.value config.deadline ~default:infinity;
      check_deadline = Option.is_some config.deadline;
      strategy;
      monitors;
      machines = [||];
      n_machines = 0;
      enabled_buf = [||];
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
      dash_sym =
        (match config.coverage with Some cov -> Coverage.sym cov "-" | None -> -1);
      horizon =
        (match config.clock with Some c -> c.Clock.max_time | None -> 0);
      step_limit = config.max_steps;
      draining = false;
      next_wakeup = 0;
    }
  in
  (match config.scenario with
   | Some o ->
     (* order-clause enforcement peeks at what a machine would dequeue
        next; installed before the root machine so [on_create] hooks and
        peeks never race the machine array *)
     Scenario.Obs.set_peek o (fun i ->
         if i < 0 || i >= rt.n_machines then None
         else
           match rt.machines.(i).status with
           | Waiting _ ->
             let matches =
               Option.value rt.machines.(i).wait_pred ~default:(fun _ -> true)
             in
             Option.map Event.name
               (Inbox.peek_first rt.machines.(i).inbox matches)
           | _ -> None)
   | None -> ());
  ignore (add_machine rt ~name body);
  (match config.hb with
   | Some h -> Hb.on_create h ~parent:(-1) ~child:0
   | None -> ());
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
            | Some entry ->
              deliver_clock rt entry;
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
           strategy.next_schedule ~enabled:rt.enabled_buf ~n ~step:rt.steps
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
  {
    bug = rt.bug;
    bug_step = (if rt.bug = None then rt.steps else rt.bug_step);
    steps = rt.steps;
    choices = Trace.Builder.finish rt.trace;
    log = List.rev rt.log_rev;
    timed_out = rt.timed_out;
    faults_injected = rt.faults_injected;
    final_time = (match rt.clock with Some ck -> Clock.now ck | None -> 0);
  }
