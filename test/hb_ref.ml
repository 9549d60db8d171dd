(* Slow reference for [Psharp.Hb]: the eager recorder in which every
   clock update joins into a fresh array and every step, message and
   happening is a boxed value. Obviously correct by construction (no
   in-place mutation, no buffer reuse), so the property in [test_hb.ml]
   checks the flat, reusable production recorder against it over random
   hook sequences. Not used by the library.

   Components missing off the end of a shorter clock array read as 0,
   which is how clocks grow as machines are created mid-execution. *)

type step = {
  sm : int;  (* machine that executed the step *)
  mutable sclock : int array;
      (* end-of-step clock; kept current as the step absorbs object
         clocks (sends, crashes, notifies) while it runs *)
  mutable payload : int64;
      (* hash of the step's schedule-invariant content: delivered message
         identity (sender + per-sender ordinal), nondet draws, send /
         crash / notify effects *)
}

type happening =
  | Touch of { target : int; actor : int }
  | Notify of { actor : int; monitor : int }

type t = {
  mutable mclock : int array array;  (* machine -> clock of its causal past *)
  mutable iclock : int array array;
      (* machine -> inbox conflict clock: join of every enqueue (and
         crash/touch) against this machine's inbox. Dequeues do not join
         it — enqueue-at-back commutes with dequeue-at-front whenever the
         dequeuer is enabled either way. *)
  mutable nmach : int;
  mutable msgs : int array array;  (* stamp -> sender clock at send time *)
  mutable msg_sender : int array;
  mutable msg_ord : int array;  (* per-sender send ordinal (stable) *)
  mutable nmsg : int;
  mutable send_count : int array;  (* per machine *)
  mutable steps_arr : step array;
  mutable nsteps : int;
  mutable haps : happening array;
  mutable nhaps : int;
  mons : (string, int) Hashtbl.t;
  mutable monclock : int array array;
  mutable nmons : int;
}

let dummy_step = { sm = -1; sclock = [||]; payload = 0L }

let create () =
  {
    mclock = [||];
    iclock = [||];
    nmach = 0;
    msgs = [||];
    msg_sender = [||];
    msg_ord = [||];
    nmsg = 0;
    send_count = [||];
    steps_arr = [||];
    nsteps = 0;
    haps = [||];
    nhaps = 0;
    mons = Hashtbl.create 8;
    monclock = [||];
    nmons = 0;
  }

(* --- clocks ------------------------------------------------------------ *)

let get c i = if i < Array.length c then Array.unsafe_get c i else 0

let join a b =
  let la = Array.length a and lb = Array.length b in
  if la >= lb then begin
    let c = Array.copy a in
    for i = 0 to lb - 1 do
      if b.(i) > c.(i) then c.(i) <- b.(i)
    done;
    c
  end
  else begin
    let c = Array.copy b in
    for i = 0 to la - 1 do
      if a.(i) > c.(i) then c.(i) <- a.(i)
    done;
    c
  end

let bump c m =
  let l = max (Array.length c) (m + 1) in
  let c' = Array.make l 0 in
  Array.blit c 0 c' 0 (Array.length c);
  c'.(m) <- c'.(m) + 1;
  c'

(* --- growable storage -------------------------------------------------- *)

let grow_arr arr n fill =
  if n < Array.length arr then arr
  else begin
    let bigger = Array.make (max 8 (2 * (n + 1))) fill in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let ensure_machine t m =
  if m >= t.nmach then begin
    t.mclock <- grow_arr t.mclock m [||];
    t.iclock <- grow_arr t.iclock m [||];
    t.send_count <- grow_arr t.send_count m 0;
    t.nmach <- m + 1
  end

let push_step t s =
  t.steps_arr <- grow_arr t.steps_arr t.nsteps dummy_step;
  t.steps_arr.(t.nsteps) <- s;
  t.nsteps <- t.nsteps + 1

let push_hap t h =
  t.haps <- grow_arr t.haps t.nhaps (Touch { target = -1; actor = -1 });
  t.haps.(t.nhaps) <- h;
  t.nhaps <- t.nhaps + 1

let new_msg t ~sender clock =
  let stamp = t.nmsg in
  t.msgs <- grow_arr t.msgs stamp [||];
  t.msg_sender <- grow_arr t.msg_sender stamp (-1);
  t.msg_ord <- grow_arr t.msg_ord stamp 0;
  t.msgs.(stamp) <- clock;
  t.msg_sender.(stamp) <- sender;
  t.msg_ord.(stamp) <- t.send_count.(sender);
  t.send_count.(sender) <- t.send_count.(sender) + 1;
  t.nmsg <- stamp + 1;
  stamp

(* --- payload hashing (FNV-1a, same constants as Coverage) -------------- *)

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L
let mix h x = Int64.mul (Int64.logxor h (Int64.of_int x)) fnv_prime

let strhash s =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3fffffff) s;
  !h

let cur_step t =
  if t.nsteps = 0 then invalid_arg "Hb: no open step" else t.steps_arr.(t.nsteps - 1)

let mix_payload t tag v =
  let s = cur_step t in
  s.payload <- mix (mix s.payload tag) v

(* The current step's machine clock: keep the step snapshot and the
   machine clock in lockstep while the step runs. *)
let set_actor_clock t m c =
  t.mclock.(m) <- c;
  let s = cur_step t in
  if s.sm = m then s.sclock <- c

(* --- runtime hooks ----------------------------------------------------- *)

let on_create t ~parent ~child =
  ensure_machine t child;
  if parent >= 0 then begin
    ensure_machine t parent;
    t.mclock.(child) <- t.mclock.(parent);
    t.iclock.(child) <- t.mclock.(parent)
  end

let begin_step t ~machine ~msg =
  ensure_machine t machine;
  let c = t.mclock.(machine) in
  let c = if msg >= 0 then join c t.msgs.(msg) else c in
  let c = bump c machine in
  t.mclock.(machine) <- c;
  let payload =
    if msg >= 0 then
      mix (mix (mix fnv_offset 1) t.msg_sender.(msg)) t.msg_ord.(msg)
    else mix fnv_offset 0
  in
  push_step t { sm = machine; sclock = c; payload }

let actor t = (cur_step t).sm

let on_send t ~target =
  ensure_machine t target;
  let a = actor t in
  let c = join t.mclock.(a) t.iclock.(target) in
  set_actor_clock t a c;
  t.iclock.(target) <- c;
  mix_payload t 4 target;
  push_hap t (Touch { target; actor = a });
  new_msg t ~sender:a c

let on_send_delayed t ~target =
  ensure_machine t target;
  let a = actor t in
  mix_payload t 8 target;
  new_msg t ~sender:a t.mclock.(a)

let on_delayed_delivery t ~target ~msg =
  ensure_machine t target;
  let c = join t.msgs.(msg) t.iclock.(target) in
  t.msgs.(msg) <- c;
  t.iclock.(target) <- c;
  push_hap t (Touch { target; actor = t.msg_sender.(msg) })

let on_touch t ~target =
  ensure_machine t target;
  let a = actor t in
  (* the decision read the whole inbox state, so it conflicts with the
     target's dequeues too: join machine and inbox clocks, both ways *)
  let c = join (join t.mclock.(a) t.iclock.(target)) t.mclock.(target) in
  set_actor_clock t a c;
  t.iclock.(target) <- c;
  t.mclock.(target) <- c;
  mix_payload t 7 target;
  push_hap t (Touch { target; actor = a })

let on_crash t ~target =
  ensure_machine t target;
  let a = actor t in
  let c = join (join t.mclock.(a) t.mclock.(target)) t.iclock.(target) in
  set_actor_clock t a c;
  t.mclock.(target) <- c;
  t.iclock.(target) <- c;
  mix_payload t 5 target;
  push_hap t (Touch { target; actor = a })

let monitor_id t name =
  match Hashtbl.find_opt t.mons name with
  | Some id -> id
  | None ->
    let id = t.nmons in
    t.monclock <- grow_arr t.monclock id [||];
    t.nmons <- id + 1;
    Hashtbl.replace t.mons name id;
    id

let on_notify t ~monitor =
  let a = actor t in
  let id = monitor_id t monitor in
  let c = join t.mclock.(a) t.monclock.(id) in
  set_actor_clock t a c;
  t.monclock.(id) <- c;
  mix_payload t 6 (strhash monitor);
  push_hap t (Notify { actor = a; monitor = id })

let on_bool t b = mix_payload t 2 (if b then 1 else 0)
let on_int t v = mix_payload t 3 v

(* --- queries ----------------------------------------------------------- *)

let steps t = t.nsteps
let machine_of t i = t.steps_arr.(i).sm
let clock_of t i = Array.copy t.steps_arr.(i).sclock

let ordered t i j =
  if i = j then true
  else begin
    let si = t.steps_arr.(i) in
    let sj = t.steps_arr.(j) in
    (* i happens-before j iff j's causal past contains at least as many
       steps of i's machine as i's own step count — the standard O(1)
       vector-clock test. *)
    get sj.sclock si.sm >= get si.sclock si.sm
  end

let independent t i j = i <> j && (not (ordered t i j)) && not (ordered t j i)

let happenings t = t.nhaps
let happening t i = t.haps.(i)

(* Greedy canonical linearization: repeatedly emit, among the steps whose
   whole causal past is already emitted, the one belonging to the lowest
   machine index. Deterministic for a given partial order, so any two
   linearizations of the same Mazurkiewicz trace hash identically. *)
let canonical_fingerprint t =
  let n = t.nsteps in
  let nm = t.nmach in
  (* per-machine step lists in program order *)
  let count = Array.make (max nm 1) 0 in
  for i = 0 to n - 1 do
    let m = t.steps_arr.(i).sm in
    count.(m) <- count.(m) + 1
  done;
  let by_machine = Array.map (fun c -> Array.make (max c 1) 0) count in
  let fill = Array.make (max nm 1) 0 in
  for i = 0 to n - 1 do
    let m = t.steps_arr.(i).sm in
    by_machine.(m).(fill.(m)) <- i;
    fill.(m) <- fill.(m) + 1
  done;
  let heads = Array.make (max nm 1) 0 in
  let emitted_per = Array.make (max nm 1) 0 in
  let h = ref fnv_offset in
  let emitted = ref 0 in
  while !emitted < n do
    let chosen = ref (-1) in
    let m = ref 0 in
    while !chosen < 0 && !m < nm do
      if heads.(!m) < count.(!m) then begin
        let s = by_machine.(!m).(heads.(!m)) in
        let c = t.steps_arr.(s).sclock in
        let ready = ref true in
        let q = ref 0 in
        while !ready && !q < nm do
          if !q <> !m && get c !q > emitted_per.(!q) then ready := false;
          incr q
        done;
        if !ready then chosen := s
      end;
      if !chosen < 0 then incr m
    done;
    (* The dependence clocks are acyclic by construction (steps only ever
       absorb earlier steps), so some head is always ready; fall back to
       the positionally-first unemitted step defensively. *)
    let s, m =
      if !chosen >= 0 then (!chosen, !m)
      else begin
        let best = ref max_int in
        for q = 0 to nm - 1 do
          if heads.(q) < count.(q) then
            best := min !best by_machine.(q).(heads.(q))
        done;
        (!best, t.steps_arr.(!best).sm)
      end
    in
    let st = t.steps_arr.(s) in
    h := Int64.mul (Int64.logxor (mix !h m) st.payload) fnv_prime;
    heads.(m) <- heads.(m) + 1;
    emitted_per.(m) <- emitted_per.(m) + 1;
    incr emitted
  done;
  !h
