(* Happens-before as an append-only log of the hook calls.

   - Every hook appends one entry to [log], three ints [tag; a; b] (tags
     below), and keeps only O(1) bookkeeping beside it: the step's
     machine and payload, the message's sender and per-sender ordinal,
     the happening count. [reset] rewinds the counters and nothing else.
   - [canonical_fingerprint] derives step-level dependency edges from the
     log in one pass and emits greedily over them (see there).
   - The vector clocks that [clock_of], [ordered], [independent] and the
     happening feed read are rebuilt only when a query asks, by replaying
     the log through the clock code below, and cached by log length.
   - Step payloads are int64 FNV hashes kept unboxed in [Bytes].

   Log tags: 0 create (parent, child), 1 begin (machine, msg), 2 send
   (target, stamp), 3 delayed send (target, stamp), 4 delayed delivery
   (target, msg), 5 touch or crash (target, _), 6 notify (monitor, _).

   Buffers grow by doubling and outlive [reset], so a reused recorder
   stops allocating once they fit the longest execution. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

type happening =
  | Touch of { target : int; actor : int }
  | Notify of { actor : int; monitor : int }

type t = {
  mutable log : int array;
  mutable nlog : int;  (* ints used: three per entry *)
  mutable nmach : int;
  mutable send_count : int array;  (* per machine, zeroed as it appears *)
  mutable smach : int array;  (* machine that executed the step *)
  mutable payload : Bytes.t;
      (* 8 bytes per step: hash of the step's schedule-invariant content
         (delivered message identity as sender + per-sender ordinal,
         nondet draws, send / crash / notify effects) *)
  mutable nsteps : int;
  mutable msender : int array;
  mutable mord : int array;  (* per-sender send ordinal (stable) *)
  mutable nmsg : int;
  mutable nhaps : int;
  mutable mon_names : string array;
  mutable mon_hash : int array;
  mutable nmons : int;
  (* what the last replay built, valid while [replayed] = [nlog] *)
  mutable replayed : int;
  mutable sclock : int array array;  (* step -> its final clock *)
  mutable haps : int array;
      (* happening [i] at [2i], [2i + 1]: the touched target, or [-1 -
         monitor] for a notification, then the actor *)
  (* canonical-fingerprint scratch, reused across calls *)
  mutable flast : int array;  (* per machine ... *)
  mutable fpend : int array;
  mutable finbox : int array;
  mutable fhead : int array;
  mutable fblk : int array;
  mutable fnext : int array;  (* per step ... *)
  mutable fpre : int array;
  mutable fmsg : int array;  (* per message *)
  mutable fmon : int array;  (* per monitor *)
  mutable pool : int array;  (* set nodes: a step, then the next node *)
  mutable np : int;
  mutable epred : int array;  (* edge sources, grouped by target step *)
  mutable ne : int;
  facc : Bytes.t;
}

let create () =
  {
    log = Array.make 192 0;
    nlog = 0;
    nmach = 0;
    send_count = Array.make 4 0;
    smach = Array.make 16 0;
    payload = Bytes.create (8 * 16);
    nsteps = 0;
    msender = Array.make 16 0;
    mord = Array.make 16 0;
    nmsg = 0;
    nhaps = 0;
    mon_names = [||];
    mon_hash = [||];
    nmons = 0;
    replayed = -1;
    sclock = [||];
    haps = [||];
    flast = [||];
    fpend = [||];
    finbox = [||];
    fhead = [||];
    fblk = [||];
    fnext = [||];
    fpre = [||];
    fmsg = [||];
    fmon = [||];
    pool = [||];
    np = 0;
    epred = [||];
    ne = 0;
    facc = Bytes.create 8;
  }

let reset t =
  t.nlog <- 0;
  t.nmach <- 0;
  t.nsteps <- 0;
  t.nmsg <- 0;
  t.nhaps <- 0;
  t.nmons <- 0;
  t.replayed <- -1

(* --- growable storage -------------------------------------------------- *)

let grown arr need =
  let bigger = Array.make (max need (2 * Array.length arr)) 0 in
  Array.blit arr 0 bigger 0 (Array.length arr);
  bigger

let[@inline] ensure_machine t m =
  if m >= t.nmach then begin
    if m >= Array.length t.send_count then
      t.send_count <- grown t.send_count (m + 1);
    for q = t.nmach to m do
      t.send_count.(q) <- 0
    done;
    t.nmach <- m + 1
  end

let[@inline] append t tag a b =
  let k = t.nlog in
  if k + 3 > Array.length t.log then t.log <- grown t.log (k + 3);
  let log = t.log in
  Array.unsafe_set log k tag;
  Array.unsafe_set log (k + 1) a;
  Array.unsafe_set log (k + 2) b;
  t.nlog <- k + 3

let[@inline] new_msg t ~sender =
  let stamp = t.nmsg in
  if stamp = Array.length t.msender then begin
    t.msender <- grown t.msender (stamp + 1);
    t.mord <- grown t.mord (stamp + 1)
  end;
  t.msender.(stamp) <- sender;
  t.mord.(stamp) <- t.send_count.(sender);
  t.send_count.(sender) <- t.send_count.(sender) + 1;
  t.nmsg <- stamp + 1;
  stamp

let[@inline] check_msg t ~lo msg =
  if msg < lo || msg >= t.nmsg then invalid_arg "Hb: unknown message stamp"

(* --- payload hashing (FNV-1a, same constants as Coverage) -------------- *)

let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L
let[@inline] mix h x = Int64.mul (Int64.logxor h (Int64.of_int x)) fnv_prime

let strhash s =
  let h = ref 0x811c9dc5 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x01000193 land 0x3fffffff) s;
  !h

let[@inline] cur_step t =
  if t.nsteps = 0 then invalid_arg "Hb: no open step" else t.nsteps - 1

let[@inline] mix_payload t tag v =
  let o = 8 * cur_step t in
  set64 t.payload o (mix (mix (get64 t.payload o) tag) v)

let[@inline] actor t = t.smach.(cur_step t)

(* --- runtime hooks ----------------------------------------------------- *)

let on_create t ~parent ~child =
  ensure_machine t child;
  if parent >= 0 then ensure_machine t parent;
  append t 0 parent child

let begin_step t ~machine ~msg =
  ensure_machine t machine;
  check_msg t ~lo:(-1) msg;
  let i = t.nsteps in
  if i = Array.length t.smach then begin
    t.smach <- grown t.smach (i + 1);
    let p = Bytes.create (8 * Array.length t.smach) in
    Bytes.blit t.payload 0 p 0 (8 * i);
    t.payload <- p
  end;
  t.smach.(i) <- machine;
  set64 t.payload (8 * i)
    (if msg >= 0 then
       mix (mix (mix fnv_offset 1) t.msender.(msg)) t.mord.(msg)
     else mix fnv_offset 0);
  t.nsteps <- i + 1;
  append t 1 machine msg

let on_send t ~target =
  ensure_machine t target;
  let a = actor t in
  mix_payload t 4 target;
  t.nhaps <- t.nhaps + 1;
  let stamp = new_msg t ~sender:a in
  append t 2 target stamp;
  stamp

let on_send_delayed t ~target =
  ensure_machine t target;
  let a = actor t in
  mix_payload t 8 target;
  let stamp = new_msg t ~sender:a in
  append t 3 target stamp;
  stamp

let on_delayed_delivery t ~target ~msg =
  ensure_machine t target;
  check_msg t ~lo:0 msg;
  t.nhaps <- t.nhaps + 1;
  append t 4 target msg

(* A touch and a crash order the same way (see the replay below); only
   their payload tags differ. *)
let touch t ~target tag =
  ensure_machine t target;
  mix_payload t tag target;
  t.nhaps <- t.nhaps + 1;
  append t 5 target 0

let on_touch t ~target = touch t ~target 7
let on_crash t ~target = touch t ~target 5

(* Monitor names are interned by a scan: harnesses pass the same literal
   each time, so the physical comparison hits without hashing, and a
   harness declares only a handful of monitors. *)
let monitor_id t name =
  let id = ref (-1) and i = ref 0 in
  while !id < 0 && !i < t.nmons do
    if t.mon_names.(!i) == name then id := !i;
    incr i
  done;
  i := 0;
  while !id < 0 && !i < t.nmons do
    if String.equal t.mon_names.(!i) name then id := !i;
    incr i
  done;
  if !id >= 0 then !id
  else begin
    let id = t.nmons in
    if id = Array.length t.mon_names then begin
      let cap = max 2 (2 * id) in
      let names = Array.make cap "" in
      Array.blit t.mon_names 0 names 0 id;
      t.mon_names <- names;
      t.mon_hash <- grown t.mon_hash cap
    end;
    t.mon_names.(id) <- name;
    t.mon_hash.(id) <- strhash name;
    t.nmons <- id + 1;
    id
  end

let on_notify t ~monitor =
  ignore (cur_step t);
  let id = monitor_id t monitor in
  mix_payload t 6 t.mon_hash.(id);
  t.nhaps <- t.nhaps + 1;
  append t 6 id 0

let on_bool t b = mix_payload t 2 (if b then 1 else 0)
let on_int t v = mix_payload t 3 v

(* --- vector clocks, replayed from the log ------------------------------ *)

(* Each step's clock and the happening feed, rebuilt from the log when a
   query finds the cache older than the log. Clocks are plain arrays as
   wide as every machine seen so far (machines not yet created read 0):
   only queries pay for them. *)
let replay t =
  let nm = t.nmach in
  let rows k = Array.init k (fun _ -> Array.make nm 0) in
  let mc = rows nm and ic = rows nm and mon = rows t.nmons in
  let msgs = Array.make t.nmsg [||] and sclock = Array.make t.nsteps [||] in
  let haps = Array.make (2 * t.nhaps) 0 and h = ref 0 and cur = ref (-1) in
  let hap x y =
    haps.(!h) <- x;
    haps.(!h + 1) <- y;
    h := !h + 2
  in
  (* [into] absorbs [c]; [both] leaves the join in both *)
  let into x c = Array.iteri (fun q v -> if v > x.(q) then x.(q) <- v) c in
  let both x y = into x y; into y x in
  let close () = if !cur >= 0 then sclock.(!cur) <- Array.copy mc.(t.smach.(!cur)) in
  for e = 0 to (t.nlog / 3) - 1 do
    let a = t.log.((3 * e) + 1) and b = t.log.((3 * e) + 2) in
    let actor = if !cur >= 0 then mc.(t.smach.(!cur)) else [||] in
    match t.log.(3 * e) with
    | 0 ->
      (* the child inherits the creator's causal past, inbox included *)
      if a >= 0 then begin
        mc.(b) <- Array.copy mc.(a);
        ic.(b) <- Array.copy mc.(a)
      end
    | 1 ->
      close ();
      incr cur;
      if b >= 0 then into mc.(a) msgs.(b);
      mc.(a).(a) <- mc.(a).(a) + 1
    | 2 ->
      (* two enqueues into one inbox are ordered: their order is FIFO order *)
      both actor ic.(a);
      msgs.(b) <- Array.copy actor;
      hap a t.smach.(!cur)
    | 3 -> msgs.(b) <- Array.copy actor (* the inbox conflict waits *)
    | 4 ->
      both msgs.(b) ic.(a);
      hap a t.msender.(b)
    | 5 ->
      (* the decision read (or wiped) the whole inbox state, so it conflicts
         with the target's dequeues too: actor, target machine and target
         inbox all become their join *)
      into actor mc.(a);
      both actor ic.(a);
      into mc.(a) actor;
      hap a t.smach.(!cur)
    | _ ->
      (* notifications of one monitor are totally ordered *)
      both actor mon.(a);
      hap (-1 - a) t.smach.(!cur)
  done;
  close ();
  t.sclock <- sclock;
  t.haps <- haps;
  t.replayed <- t.nlog

let[@inline] clocks t = if t.replayed <> t.nlog then replay t

(* --- queries ----------------------------------------------------------- *)

let check_step t i =
  if i < 0 || i >= t.nsteps then invalid_arg "Hb: step index out of range"

let steps t = t.nsteps

let machine_of t i =
  check_step t i;
  t.smach.(i)

let clock_of t i =
  check_step t i;
  clocks t;
  Array.copy t.sclock.(i)

let ordered t i j =
  check_step t i;
  check_step t j;
  clocks t;
  (* i happens-before j iff j's causal past contains at least as many
     steps of i's machine as i's own step count — the standard O(1)
     vector-clock test. *)
  let m = t.smach.(i) in
  i = j || t.sclock.(j).(m) >= t.sclock.(i).(m)

let independent t i j = i <> j && (not (ordered t i j)) && not (ordered t j i)

let happenings t = t.nhaps

let happening t i =
  if i < 0 || i >= t.nhaps then invalid_arg "Hb: happening index out of range";
  clocks t;
  let x = t.haps.(2 * i) and actor = t.haps.((2 * i) + 1) in
  if x >= 0 then Touch { target = x; actor } else Notify { actor; monitor = -1 - x }

(* --- canonical fingerprint --------------------------------------------- *)

(* A dependence set is -1 (empty), a step [s >= 0] (the set {s}), or
   [-2 - x] for a list node in [pool]: a step at [x], the rest of the set
   at [x + 1]. A set is never changed once built, so sets share tails, a
   union copies only its left operand, and the common singletons take no
   node at all. *)
let cons t s rest =
  if rest = -1 then s
  else begin
    let x = t.np in
    if x + 2 > Array.length t.pool then t.pool <- grown t.pool (x + 2);
    t.pool.(x) <- s;
    t.pool.(x + 1) <- rest;
    t.np <- x + 2;
    -2 - x
  end

let rec union t x y =
  if x = -1 then y
  else if x >= 0 then cons t x y
  else cons t t.pool.(-2 - x) (union t t.pool.(-1 - x) y)

(* The steps of set [x] precede the open step, which runs on machine
   [ms]; those on [ms] itself are program order already. *)
let[@inline] pred t ms p =
  if Array.unsafe_get t.smach p <> ms then begin
    let e = t.ne in
    if e = Array.length t.epred then t.epred <- grown t.epred (e + 1);
    Array.unsafe_set t.epred e p;
    t.ne <- e + 1
  end

let rec pred_list t ms x =
  if x <> -1 then begin
    pred t ms (if x >= 0 then x else t.pool.(-2 - x));
    if x < -1 then pred_list t ms t.pool.(-1 - x)
  end

let[@inline] preds t ms x =
  if x >= 0 then pred t ms x else if x < -1 then pred_list t ms x

(* One pass over the log. Each vector-clock join of the replay becomes a
   set of steps whose final clocks cover the joined clock: per machine,
   the steps absorbed since its last step ([fpend]); per inbox, monitor
   and message, the steps whose joins it carries. A step's predecessors
   ([epred] from [fpre.(s)] to [fpre.(s + 1)]) are the sets it absorbs,
   and every one of them is in its causal past, so its readiness below is
   exactly the clock test. [fhead] and [fnext] thread each machine's steps
   in program order. *)
let derive t =
  let last = t.flast and pend = t.fpend and inbox = t.finbox in
  let head = t.fhead and next = t.fnext and pre = t.fpre in
  let mset = t.fmsg and mon = t.fmon and log = t.log and nlog = t.nlog in
  for m = 0 to t.nmach - 1 do
    last.(m) <- -1;
    pend.(m) <- -1;
    inbox.(m) <- -1;
    head.(m) <- max_int
  done;
  for id = 0 to t.nmons - 1 do
    mon.(id) <- -1
  done;
  t.np <- 0;
  t.ne <- 0;
  let s = ref (-1) and ms = ref (-1) and k = ref 0 in
  while !k < nlog do
    let a = Array.unsafe_get log (!k + 1) and b = Array.unsafe_get log (!k + 2) in
    (match Array.unsafe_get log !k with
     | 0 ->
       if a >= 0 then begin
         let x = if last.(a) >= 0 then cons t last.(a) pend.(a) else pend.(a) in
         pend.(b) <- x;
         inbox.(b) <- x
       end
     | 1 ->
       incr s;
       ms := a;
       pre.(!s) <- t.ne;
       preds t a pend.(a);
       pend.(a) <- -1;
       if b >= 0 then preds t a mset.(b);
       if last.(a) >= 0 then next.(last.(a)) <- !s else head.(a) <- !s;
       next.(!s) <- max_int;
       last.(a) <- !s
     | 2 ->
       preds t !ms inbox.(a);
       inbox.(a) <- !s;
       mset.(b) <- !s
     | 3 -> mset.(b) <- !s
     | 4 ->
       (* the join is two-way: message and inbox both carry the union *)
       let u = union t mset.(b) inbox.(a) in
       mset.(b) <- u;
       inbox.(a) <- u
     | 5 ->
       preds t !ms last.(a);
       preds t !ms pend.(a);
       preds t !ms inbox.(a);
       pend.(a) <- !s;
       inbox.(a) <- !s
     | _ ->
       preds t !ms mon.(a);
       mon.(a) <- !s);
    k := !k + 3
  done;
  pre.(!s + 1) <- t.ne

let fit (a : int array) need =
  if Array.length a >= need then a else Array.make (max need (2 * Array.length a)) 0

(* Greedy canonical linearization: repeatedly emit, among the steps whose
   whole causal past is already emitted, the one belonging to the lowest
   machine index. Deterministic for a given partial order, so any two
   linearizations of the same Mazurkiewicz trace hash identically.

   A step [p] is emitted iff it lies before its machine's head. Emission
   only moves heads forward, so each machine keeps a cursor [fblk] at the
   first predecessor that blocked its current head and resumes there: a
   head's readiness costs O(predecessors) over its whole wait. All work
   arrays are scratch kept in [t]; a call allocates nothing but its
   result once they have grown. *)
let canonical_fingerprint t =
  let n = t.nsteps and nm = t.nmach in
  t.flast <- fit t.flast nm;
  t.fpend <- fit t.fpend nm;
  t.finbox <- fit t.finbox nm;
  t.fhead <- fit t.fhead nm;
  t.fblk <- fit t.fblk nm;
  t.fnext <- fit t.fnext n;
  t.fpre <- fit t.fpre (n + 1);
  t.fmsg <- fit t.fmsg t.nmsg;
  t.fmon <- fit t.fmon t.nmons;
  t.epred <- fit t.epred (t.nlog / 3);
  derive t;
  let head = t.fhead and blk = t.fblk and next = t.fnext and pre = t.fpre in
  let epred = t.epred and smach = t.smach in
  for m = 0 to nm - 1 do
    if head.(m) < max_int then blk.(m) <- pre.(head.(m))
  done;
  set64 t.facc 0 fnv_offset;
  let lo = ref 0 in
  for _ = 1 to n do
    while head.(!lo) = max_int do
      incr lo
    done;
    (* Predecessors come earlier in the log than their step, so the
       lowest-indexed unemitted step is always ready: the scan stops. *)
    let chosen = ref (-1) and m = ref !lo in
    while !chosen < 0 do
      let s = head.(!m) in
      if s < max_int then begin
        let q = ref (Array.unsafe_get blk !m) and stop = Array.unsafe_get pre (s + 1) in
        while
          !q < stop
          &&
          let p = Array.unsafe_get epred !q in
          p < Array.unsafe_get head (Array.unsafe_get smach p)
        do
          incr q
        done;
        Array.unsafe_set blk !m !q;
        if !q = stop then chosen := s
      end;
      if !chosen < 0 then incr m
    done;
    let s = !chosen and mm = !m in
    set64 t.facc 0
      (Int64.mul
         (Int64.logxor (mix (get64 t.facc 0) mm) (get64 t.payload (8 * s)))
         fnv_prime);
    let s' = next.(s) in
    head.(mm) <- s';
    if s' < max_int then blk.(mm) <- pre.(s')
  done;
  get64 t.facc 0
