(* Vector clocks over machine creation indices, kept in flat int buffers
   and updated in place.

   - The working clocks (per machine, per inbox, per monitor) are rows of
     three int matrices with row stride [mcap]. Every write stays inside
     the active square (rows and columns below [nmach]), so everything
     outside it is zero: a machine created mid-execution starts from a
     zero row, and a row's components past [nmach] read as 0.
   - Step and message clocks are snapshots copied into one int arena:
     [off, len] regions, components past [len] reading as 0. A message
     snapshot is taken at send time; a step's snapshot when the step
     closes (the next [begin_step]) or when a query needs it, since the
     open step keeps absorbing object clocks while it runs.
   - Step payloads are int64 FNV hashes kept unboxed in [Bytes]; the
     happening feed is two parallel int arrays, decoded into the
     [happening] variant only on read.

   [reset] rewinds a recorder to empty without freeing its buffers, so a
   caller that runs many executions reuses one recorder; [create] starts
   small and every buffer grows by doubling. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* Int-typed copy and fill. [Array.blit] and [Array.fill] go through the
   runtime's generic versions, which pay a write barrier per element once
   an array lives in the major heap — where a reused recorder's buffers
   always are. *)
let[@inline] copy_ints (src : int array) soff (dst : int array) doff len =
  for q = 0 to len - 1 do
    Array.unsafe_set dst (doff + q) (Array.unsafe_get src (soff + q))
  done

let[@inline] zero_ints (a : int array) off len =
  for q = off to off + len - 1 do
    Array.unsafe_set a q 0
  done

type happening =
  | Touch of { target : int; actor : int }
  | Notify of { actor : int; monitor : int }

type t = {
  (* machines *)
  mutable mcap : int;  (* row stride of [mclock], [iclock], [monclock] *)
  mutable nmach : int;
  mutable mclock : int array;  (* machine -> clock of its causal past *)
  mutable iclock : int array;
      (* machine -> inbox conflict clock: join of every enqueue (and
         crash/touch) against this machine's inbox. Dequeues do not join
         it — enqueue-at-back commutes with dequeue-at-front whenever the
         dequeuer is enabled either way. *)
  mutable send_count : int array;  (* per machine *)
  (* monitors *)
  mutable mon_names : string array;
  mutable mon_hash : int array;
  mutable monclock : int array;  (* monitor -> conflict clock *)
  mutable nmons : int;
  (* snapshot arena *)
  mutable arena : int array;
  mutable top : int;
  (* steps *)
  mutable smach : int array;  (* machine that executed the step *)
  mutable soff : int array;
  mutable slen : int array;  (* -1: no snapshot yet *)
  mutable payload : Bytes.t;
      (* 8 bytes per step: hash of the step's schedule-invariant content
         (delivered message identity as sender + per-sender ordinal,
         nondet draws, send / crash / notify effects) *)
  mutable nsteps : int;
  mutable open_dirty : bool;
      (* the open (last) step's snapshot lags its machine's clock row *)
  (* messages *)
  mutable moff : int array;
  mutable mlen : int array;
  mutable msender : int array;
  mutable mord : int array;  (* per-sender send ordinal (stable) *)
  mutable nmsg : int;
  (* happenings: [hx] is the touched target, or [-1 - monitor] for a
     notification; [hy] is the actor *)
  mutable hx : int array;
  mutable hy : int array;
  mutable nhaps : int;
  (* canonical-fingerprint scratch, reused across calls *)
  mutable ffin : int array;
  mutable fnext : int array;
  mutable fhead : int array;
  mutable femit : int array;
  mutable fblk : int array;
  mutable forder : int array;
  facc : Bytes.t;
}

let create () =
  let mcap = 4 in
  {
    mcap;
    nmach = 0;
    mclock = Array.make (mcap * mcap) 0;
    iclock = Array.make (mcap * mcap) 0;
    send_count = Array.make mcap 0;
    mon_names = [||];
    mon_hash = [||];
    monclock = [||];
    nmons = 0;
    arena = Array.make 64 0;
    top = 0;
    smach = Array.make 16 0;
    soff = Array.make 16 0;
    slen = Array.make 16 0;
    payload = Bytes.create (8 * 16);
    nsteps = 0;
    open_dirty = false;
    moff = Array.make 16 0;
    mlen = Array.make 16 0;
    msender = Array.make 16 0;
    mord = Array.make 16 0;
    nmsg = 0;
    hx = Array.make 16 0;
    hy = Array.make 16 0;
    nhaps = 0;
    ffin = [||];
    fnext = [||];
    fhead = [||];
    femit = [||];
    fblk = [||];
    forder = [||];
    facc = Bytes.create 8;
  }

let reset t =
  (* zero the active squares: everything outside them is already zero *)
  let zero_rows mat rows =
    for r = 0 to rows - 1 do
      zero_ints mat (r * t.mcap) t.nmach
    done
  in
  zero_rows t.mclock t.nmach;
  zero_rows t.iclock t.nmach;
  zero_rows t.monclock t.nmons;
  zero_ints t.send_count 0 t.nmach;
  t.nmach <- 0;
  t.nmons <- 0;
  t.top <- 0;
  t.nsteps <- 0;
  t.open_dirty <- false;
  t.nmsg <- 0;
  t.nhaps <- 0

(* --- growable storage -------------------------------------------------- *)

let grown arr need =
  let bigger = Array.make (max need (2 * Array.length arr)) 0 in
  Array.blit arr 0 bigger 0 (Array.length arr);
  bigger

(* Re-lay the clock matrices out at a stride of at least [need]. *)
let grow_machines t need =
  let cap = max need (2 * t.mcap) in
  let relayout mat rows =
    let bigger = Array.make (rows * cap) 0 in
    for r = 0 to (Array.length mat / t.mcap) - 1 do
      Array.blit mat (r * t.mcap) bigger (r * cap) t.mcap
    done;
    bigger
  in
  t.mclock <- relayout t.mclock cap;
  t.iclock <- relayout t.iclock cap;
  t.monclock <- relayout t.monclock (Array.length t.monclock / t.mcap);
  t.send_count <- grown t.send_count cap;
  t.mcap <- cap

let[@inline] ensure_machine t m =
  if m >= t.nmach then begin
    if m >= t.mcap then grow_machines t (m + 1);
    t.nmach <- m + 1
  end

(* A fresh arena region of [len] ints (contents unspecified). *)
let[@inline] alloc t len =
  let off = t.top in
  if off + len > Array.length t.arena then t.arena <- grown t.arena (off + len);
  t.top <- off + len;
  off

(* Snapshot clock row [r] of [mat] into a fresh arena region. *)
let[@inline] snapshot t mat r =
  let off = alloc t t.nmach in
  copy_ints mat (r * t.mcap) t.arena off t.nmach;
  off

(* Bring the open step's snapshot up to date with its machine's row. *)
let[@inline] sync t =
  if t.open_dirty then begin
    let i = t.nsteps - 1 in
    let r = t.smach.(i) * t.mcap in
    if t.slen.(i) = t.nmach then
      copy_ints t.mclock r t.arena t.soff.(i) t.nmach
    else begin
      t.soff.(i) <- snapshot t t.mclock t.smach.(i);
      t.slen.(i) <- t.nmach
    end;
    t.open_dirty <- false
  end

let[@inline] push_hap t x y =
  let k = t.nhaps in
  if k = Array.length t.hx then begin
    t.hx <- grown t.hx (k + 1);
    t.hy <- grown t.hy (k + 1)
  end;
  t.hx.(k) <- x;
  t.hy.(k) <- y;
  t.nhaps <- k + 1

let[@inline] new_msg t ~sender =
  let stamp = t.nmsg in
  if stamp = Array.length t.moff then begin
    t.moff <- grown t.moff (stamp + 1);
    t.mlen <- grown t.mlen (stamp + 1);
    t.msender <- grown t.msender (stamp + 1);
    t.mord <- grown t.mord (stamp + 1)
  end;
  t.moff.(stamp) <- snapshot t t.mclock sender;
  t.mlen.(stamp) <- t.nmach;
  t.msender.(stamp) <- sender;
  t.mord.(stamp) <- t.send_count.(sender);
  t.send_count.(sender) <- t.send_count.(sender) + 1;
  t.nmsg <- stamp + 1;
  stamp

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
  if parent >= 0 then begin
    ensure_machine t parent;
    let p = parent * t.mcap and c = child * t.mcap in
    copy_ints t.mclock p t.mclock c t.nmach;
    copy_ints t.mclock p t.iclock c t.nmach
  end

let begin_step t ~machine ~msg =
  ensure_machine t machine;
  sync t;
  let mc = t.mclock and r = machine * t.mcap in
  if msg >= 0 then begin
    let a = t.arena and off = t.moff.(msg) in
    for q = 0 to t.mlen.(msg) - 1 do
      let v = Array.unsafe_get a (off + q) in
      if v > Array.unsafe_get mc (r + q) then Array.unsafe_set mc (r + q) v
    done
  end;
  mc.(r + machine) <- mc.(r + machine) + 1;
  let i = t.nsteps in
  if i = Array.length t.smach then begin
    t.smach <- grown t.smach (i + 1);
    t.soff <- grown t.soff (i + 1);
    t.slen <- grown t.slen (i + 1);
    let p = Bytes.create (8 * Array.length t.smach) in
    Bytes.blit t.payload 0 p 0 (8 * i);
    t.payload <- p
  end;
  t.smach.(i) <- machine;
  t.slen.(i) <- -1;
  set64 t.payload (8 * i)
    (if msg >= 0 then
       mix (mix (mix fnv_offset 1) t.msender.(msg)) t.mord.(msg)
     else mix fnv_offset 0);
  t.nsteps <- i + 1;
  t.open_dirty <- true

(* [x] <- [y] <- join x y, componentwise over the active width. The
   [int array] annotations matter: a polymorphic element type would turn
   every comparison into a [caml_greaterthan] call and every read into a
   float-array check. *)
let[@inline] join2 t (mx : int array) rx (my : int array) ry =
  for q = 0 to t.nmach - 1 do
    let a = Array.unsafe_get mx (rx + q) and b = Array.unsafe_get my (ry + q) in
    if a > b then Array.unsafe_set my (ry + q) a
    else if b > a then Array.unsafe_set mx (rx + q) b
  done

(* Rows [r1], [r2] of [m12] and row [r3] of [m3] all become their join. *)
let join3 t (m12 : int array) r1 r2 (m3 : int array) r3 =
  for q = 0 to t.nmach - 1 do
    let v =
      Int.max
        (Int.max (Array.unsafe_get m12 (r1 + q)) (Array.unsafe_get m12 (r2 + q)))
        (Array.unsafe_get m3 (r3 + q))
    in
    Array.unsafe_set m12 (r1 + q) v;
    Array.unsafe_set m12 (r2 + q) v;
    Array.unsafe_set m3 (r3 + q) v
  done

let on_send t ~target =
  ensure_machine t target;
  let a = actor t in
  join2 t t.mclock (a * t.mcap) t.iclock (target * t.mcap);
  t.open_dirty <- true;
  mix_payload t 4 target;
  push_hap t target a;
  new_msg t ~sender:a

let on_send_delayed t ~target =
  ensure_machine t target;
  let a = actor t in
  mix_payload t 8 target;
  new_msg t ~sender:a

let on_delayed_delivery t ~target ~msg =
  ensure_machine t target;
  let len = t.mlen.(msg) in
  if len < t.nmach then begin
    (* machines created since the send: widen the stamp, zero-padded *)
    let off = alloc t t.nmach in
    copy_ints t.arena t.moff.(msg) t.arena off len;
    zero_ints t.arena (off + len) (t.nmach - len);
    t.moff.(msg) <- off;
    t.mlen.(msg) <- t.nmach
  end;
  join2 t t.arena t.moff.(msg) t.iclock (target * t.mcap);
  push_hap t target t.msender.(msg)

(* A touch and a crash both join the actor's clock with the target's
   machine and inbox clocks, all three ways: the decision read (or wiped)
   the whole inbox state, so it conflicts with the target's dequeues too. *)
let on_touch t ~target =
  ensure_machine t target;
  let a = actor t in
  join3 t t.mclock (a * t.mcap) (target * t.mcap) t.iclock (target * t.mcap);
  t.open_dirty <- true;
  mix_payload t 7 target;
  push_hap t target a

let on_crash t ~target =
  ensure_machine t target;
  let a = actor t in
  join3 t t.mclock (a * t.mcap) (target * t.mcap) t.iclock (target * t.mcap);
  t.open_dirty <- true;
  mix_payload t 5 target;
  push_hap t target a

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
    if (id + 1) * t.mcap > Array.length t.monclock then
      t.monclock <- grown t.monclock ((id + 1) * t.mcap);
    t.mon_names.(id) <- name;
    t.mon_hash.(id) <- strhash name;
    t.nmons <- id + 1;
    id
  end

let on_notify t ~monitor =
  let a = actor t in
  let id = monitor_id t monitor in
  join2 t t.mclock (a * t.mcap) t.monclock (id * t.mcap);
  t.open_dirty <- true;
  mix_payload t 6 t.mon_hash.(id);
  push_hap t (-1 - id) a

let on_bool t b = mix_payload t 2 (if b then 1 else 0)
let on_int t v = mix_payload t 3 v

(* --- queries ----------------------------------------------------------- *)

let check_step t i =
  if i < 0 || i >= t.nsteps then invalid_arg "Hb: step index out of range"

let steps t = t.nsteps

let machine_of t i =
  check_step t i;
  t.smach.(i)

let clock_of t i =
  check_step t i;
  sync t;
  Array.sub t.arena t.soff.(i) t.slen.(i)

let[@inline] component t i q =
  if q < t.slen.(i) then Array.unsafe_get t.arena (t.soff.(i) + q) else 0

let ordered t i j =
  check_step t i;
  check_step t j;
  if i = j then true
  else begin
    sync t;
    (* i happens-before j iff j's causal past contains at least as many
       steps of i's machine as i's own step count — the standard O(1)
       vector-clock test. *)
    let m = t.smach.(i) in
    component t j m >= component t i m
  end

let independent t i j = i <> j && (not (ordered t i j)) && not (ordered t j i)

let happenings t = t.nhaps

let happening t i =
  if i < 0 || i >= t.nhaps then invalid_arg "Hb: happening index out of range";
  let x = t.hx.(i) and actor = t.hy.(i) in
  if x >= 0 then Touch { target = x; actor } else Notify { actor; monitor = -1 - x }

(* Greedy canonical linearization: repeatedly emit, among the steps whose
   whole causal past is already emitted, the one belonging to the lowest
   machine index. Deterministic for a given partial order, so any two
   linearizations of the same Mazurkiewicz trace hash identically.

   A head step is ready once every other machine [q] has emitted at least
   [clock.(q)] steps. Emitted counts only grow, so each machine keeps a
   cursor [blk] at the first component that blocked its current head and
   resumes the check there: a head's readiness costs O(machines) over its
   whole wait, not per emitted step. All work arrays are scratch kept in
   [t]; a call allocates nothing but its result. *)
let canonical_fingerprint t =
  sync t;
  let n = t.nsteps and nm = t.nmach in
  if Array.length t.ffin < nm then begin
    let cap = max nm (2 * Array.length t.ffin) in
    t.ffin <- Array.make cap 0;
    t.fnext <- Array.make cap 0;
    t.fhead <- Array.make cap 0;
    t.femit <- Array.make cap 0;
    t.fblk <- Array.make cap 0
  end;
  if Array.length t.forder < n then
    t.forder <- Array.make (max n (2 * Array.length t.forder)) 0;
  let fin = t.ffin and next = t.fnext and head = t.fhead in
  let emit = t.femit and blk = t.fblk and order = t.forder in
  let smach = t.smach and soff = t.soff and slen = t.slen and arena = t.arena in
  (* Each machine's steps in program order, as the slice of [order] that
     ends before [fin.(m)]; [next.(m)] walks the slice and [head.(m)] is
     the machine's next unemitted step (-1 once it has none). *)
  zero_ints fin 0 nm;
  for i = 0 to n - 1 do
    let m = smach.(i) in
    fin.(m) <- fin.(m) + 1
  done;
  let acc = ref 0 in
  for m = 0 to nm - 1 do
    next.(m) <- !acc;
    acc := !acc + fin.(m);
    fin.(m) <- !acc
  done;
  for i = 0 to n - 1 do
    let m = smach.(i) in
    order.(next.(m)) <- i;
    next.(m) <- next.(m) + 1
  done;
  for m = 0 to nm - 1 do
    let first = if m = 0 then 0 else fin.(m - 1) in
    next.(m) <- first;
    head.(m) <- (if first < fin.(m) then order.(first) else -1);
    emit.(m) <- 0;
    blk.(m) <- 0
  done;
  set64 t.facc 0 fnv_offset;
  let lo = ref 0 in
  for _ = 1 to n do
    while head.(!lo) < 0 do
      incr lo
    done;
    let chosen = ref (-1) and m = ref !lo in
    while !chosen < 0 && !m < nm do
      let s = head.(!m) in
      if s >= 0 then begin
        (* components past the snapshot's length read as 0: satisfied *)
        let off = soff.(s) and len = slen.(s) in
        let q = ref blk.(!m) in
        while
          !q < len
          && (!q = !m
             || Array.unsafe_get arena (off + !q) <= Array.unsafe_get emit !q)
        do
          incr q
        done;
        blk.(!m) <- !q;
        if !q >= len then chosen := s
      end;
      if !chosen < 0 then incr m
    done;
    (* The dependence clocks are acyclic by construction (steps only ever
       absorb earlier steps), so some head is always ready; fall back to
       the positionally-first unemitted step defensively. *)
    if !chosen < 0 then begin
      let best = ref max_int in
      for q = 0 to nm - 1 do
        if head.(q) >= 0 then best := Int.min !best head.(q)
      done;
      chosen := !best;
      m := smach.(!best)
    end;
    let s = !chosen and mm = !m in
    set64 t.facc 0
      (Int64.mul
         (Int64.logxor (mix (get64 t.facc 0) mm) (get64 t.payload (8 * s)))
         fnv_prime);
    let k = next.(mm) + 1 in
    next.(mm) <- k;
    head.(mm) <- (if k < fin.(mm) then order.(k) else -1);
    emit.(mm) <- emit.(mm) + 1;
    blk.(mm) <- 0
  done;
  get64 t.facc 0
