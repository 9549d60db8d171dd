(* Coverage keys are interned ints. Each map owns a symbol table that
   numbers every string it has seen (machine, state, event, fault kind,
   history point); a key is up to three ints built from symbols, and each
   family is an open-addressing table from key to slot. Recording through
   the [*_sym] entry points is a few int loads and stores — no string is
   hashed, compared or allocated on the hot path. The runtime interns a
   machine's name once, at creation, and a state once per
   [set_state_name]; events are interned per extension constructor.

   Symbols are private to a map, so strings are rebuilt only where two
   maps meet or a person reads one: reports, [to_save], [equal], and the
   symbol translation of a cross-map [absorb]. *)

module Stbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

(* --- Families: int-keyed open addressing -------------------------------- *)

type family = {
  mutable index : int array;  (* power of two; slot + 1, 0 = empty *)
  mutable k1 : int array;  (* slot -> key, first [n] valid *)
  mutable k2 : int array;
  mutable k3 : int array;
  mutable counts : int array;  (* slot -> visit count *)
  mutable n : int;
}

let family_create () =
  { index = [||]; k1 = [||]; k2 = [||]; k3 = [||]; counts = [||]; n = 0 }

let[@inline] hash3 a b c =
  let h = ((a * 0x2545F491) + b) * 0x2545F491 + c in
  h lxor (h lsr 17)

let rehash fam size =
  let index = Array.make size 0 in
  let mask = size - 1 in
  for s = 0 to fam.n - 1 do
    let i = ref (hash3 fam.k1.(s) fam.k2.(s) fam.k3.(s) land mask) in
    while index.(!i) <> 0 do
      i := (!i + 1) land mask
    done;
    index.(!i) <- s + 1
  done;
  fam.index <- index

let grow_slots fam =
  let cap = max 8 (2 * fam.n) in
  let grow a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 fam.n;
    b
  in
  fam.k1 <- grow fam.k1;
  fam.k2 <- grow fam.k2;
  fam.k3 <- grow fam.k3;
  fam.counts <- grow fam.counts

(* Add [add] visits of key [(a, b, c)]; returns [true] when the key is
   new. Allocation-free unless a table grows (a loop, not a local
   recursive function, which would allocate its closure per call). *)
let family_bump_n fam a b c add =
  if 2 * (fam.n + 1) > Array.length fam.index then
    rehash fam (max 16 (2 * Array.length fam.index));
  let index = fam.index in
  let mask = Array.length index - 1 in
  let i = ref (hash3 a b c land mask) in
  let found = ref (-1) in
  while !found < 0 && Array.unsafe_get index !i <> 0 do
    let s = Array.unsafe_get index !i - 1 in
    if
      Array.unsafe_get fam.k1 s = a
      && Array.unsafe_get fam.k2 s = b
      && Array.unsafe_get fam.k3 s = c
    then found := s
    else i := (!i + 1) land mask
  done;
  if !found >= 0 then begin
    fam.counts.(!found) <- fam.counts.(!found) + add;
    false
  end
  else begin
    if fam.n = Array.length fam.k1 then grow_slots fam;
    let s = fam.n in
    fam.k1.(s) <- a;
    fam.k2.(s) <- b;
    fam.k3.(s) <- c;
    fam.counts.(s) <- add;
    fam.n <- s + 1;
    index.(!i) <- s + 1;
    true
  end

let family_bump fam a b c = ignore (family_bump_n fam a b c 1)

(* Transition triples pack receiver and receiver state into one int. *)
let sym_bits = 31
let sym_mask = (1 lsl sym_bits) - 1

type t = {
  syms : int Stbl.t;  (* string -> symbol *)
  mutable strs : string array;  (* symbol -> string, first [nsyms] valid *)
  mutable nsyms : int;
  mutable ev_ids : int array;
      (* direct-mapped event cache: extension constructor id -> symbol *)
  mutable ev_syms : int array;
  states : family;  (* machine, state *)
  events : family;  (* event *)
  triples : family;
      (* sender, event, receiver << sym_bits | receiver-state *)
  branches : family;
      (* machine << 1 | 0, outcome 0/1 — or machine << 1 | 1, value, bound *)
  faults : family;  (* kind, target *)
  histories : family;
      (* completed client operations ("client op -> res"); empty unless a
         harness records a History *)
  schedules : (int64, int) Hashtbl.t;
  hb : (int64, int) Hashtbl.t;
      (* canonical partial-order fingerprints (Hb); empty unless
         happens-before tracking is on *)
  mutable executions : int;
}

let create () =
  {
    syms = Stbl.create 16;
    strs = [||];
    nsyms = 0;
    ev_ids = [||];
    ev_syms = [||];
    states = family_create ();
    events = family_create ();
    triples = family_create ();
    branches = family_create ();
    faults = family_create ();
    histories = family_create ();
    schedules = Hashtbl.create 8;
    hb = Hashtbl.create 8;
    executions = 0;
  }

(* --- Symbols ----------------------------------------------------------- *)

let sym t s =
  match Stbl.find t.syms s with
  | i -> i
  | exception Not_found ->
    let i = t.nsyms in
    if i >= sym_mask then failwith "Coverage: symbol table full";
    if i = Array.length t.strs then begin
      let strs = Array.make (max 16 (2 * i)) "" in
      Array.blit t.strs 0 strs 0 i;
      t.strs <- strs
    end;
    t.strs.(i) <- s;
    t.nsyms <- i + 1;
    Stbl.add t.syms s i;
    i

let ev_cache = 64

let event_sym t e =
  if Array.length t.ev_ids = 0 then begin
    t.ev_ids <- Array.make ev_cache (-1);
    t.ev_syms <- Array.make ev_cache 0
  end;
  let id = Event.constructor_id e in
  let j = id land (ev_cache - 1) in
  if Array.unsafe_get t.ev_ids j = id then Array.unsafe_get t.ev_syms j
  else begin
    let s = sym t (Event.name e) in
    t.ev_ids.(j) <- id;
    t.ev_syms.(j) <- s;
    s
  end

(* --- Recording --------------------------------------------------------- *)

let visit_state_sym t ~machine ~state = family_bump t.states machine state 0

let deliver_sym t ~sender ~event ~receiver ~state =
  family_bump t.events event 0 0;
  family_bump t.triples sender event ((receiver lsl sym_bits) lor state)

let branch_bool_sym t ~machine b =
  family_bump t.branches (machine lsl 1) (if b then 1 else 0) 0

let branch_int_sym t ~machine ~bound v =
  family_bump t.branches ((machine lsl 1) lor 1) v bound

let visit_state t ~machine ~state =
  visit_state_sym t ~machine:(sym t machine) ~state:(sym t state)

let deliver t ~sender ~event ~receiver ~state =
  deliver_sym t ~sender:(sym t sender) ~event:(sym t event)
    ~receiver:(sym t receiver) ~state:(sym t state)

let branch_bool t ~machine b = branch_bool_sym t ~machine:(sym t machine) b

let branch_int t ~machine ~bound v =
  branch_int_sym t ~machine:(sym t machine) ~bound v

let fault t ~kind ~target = family_bump t.faults (sym t kind) (sym t target) 0
let history t ~point = family_bump t.histories (sym t point) 0 0

(* FNV-1a over the choice sequence; tags keep [Schedule 1] and [Int 1]
   from colliding. *)
let fnv_prime = 0x100000001b3L
let fnv_offset = 0xcbf29ce484222325L

let[@inline] mix h x = Int64.mul (Int64.logxor h (Int64.of_int x)) fnv_prime

(* The running hash stays unboxed in 8 bytes: an [int64] accumulator
   threaded through the fold would box a fresh value per choice. *)
external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let fingerprint trace =
  let h = Bytes.create 8 in
  set64 h 0 fnv_offset;
  Trace.fold
    (fun () c ->
      match c with
      | Trace.Schedule i -> set64 h 0 (mix (mix (get64 h 0) 1) i)
      | Trace.Bool b -> set64 h 0 (mix (mix (get64 h 0) 2) (if b then 1 else 0))
      | Trace.Int i -> set64 h 0 (mix (mix (get64 h 0) 3) i))
    () trace;
  get64 h 0

(* One 64-bit digest of the whole schedule-fingerprint multiset: FNV-1a
   over the sorted (fingerprint, count) pairs. Two maps have the same
   digest iff they saw the same schedules the same number of times (up to
   hash collisions), which makes it a compact golden value for
   determinism tests. *)
let schedule_digest t =
  let entries =
    Hashtbl.fold (fun fp n acc -> (fp, n) :: acc) t.schedules []
    |> List.sort compare
  in
  let h =
    List.fold_left
      (fun h (fp, n) ->
        let h = Int64.mul (Int64.logxor h fp) fnv_prime in
        Int64.mul (Int64.logxor h (Int64.of_int n)) fnv_prime)
      fnv_offset entries
  in
  Printf.sprintf "%016Lx" h

let note_hb t ~fingerprint =
  match Hashtbl.find_opt t.hb fingerprint with
  | Some n -> Hashtbl.replace t.hb fingerprint (n + 1)
  | None -> Hashtbl.replace t.hb fingerprint 1

let note_execution t ~fingerprint =
  (match Hashtbl.find_opt t.schedules fingerprint with
   | Some n -> Hashtbl.replace t.schedules fingerprint (n + 1)
   | None -> Hashtbl.replace t.schedules fingerprint 1);
  t.executions <- t.executions + 1

(* --- Merging ----------------------------------------------------------- *)

type family_kind = State | Event | Triple | Branch | Fault | History | Hb

let all_family_kinds = [ State; Event; Triple; Branch; Fault; History; Hb ]

let family_kind_to_string = function
  | State -> "state"
  | Event -> "event"
  | Triple -> "triple"
  | Branch -> "branch"
  | Fault -> "fault"
  | History -> "history"
  | Hb -> "hb"

let family_kind_of_string = function
  | "state" -> State
  | "event" -> Event
  | "triple" -> Triple
  | "branch" -> Branch
  | "fault" -> Fault
  | "history" -> History
  | "hb" -> Hb
  | s -> failwith (Printf.sprintf "Coverage: unknown coverage family %S" s)

type novelty = {
  new_states : int;
  new_events : int;
  new_triples : int;
  new_branches : int;
  new_faults : int;
  new_histories : int;
  new_hb : int;
}

let no_novelty =
  {
    new_states = 0;
    new_events = 0;
    new_triples = 0;
    new_branches = 0;
    new_faults = 0;
    new_histories = 0;
    new_hb = 0;
  }

let novel_core n =
  n.new_states > 0 || n.new_events > 0 || n.new_triples > 0
  || n.new_branches > 0 || n.new_faults > 0 || n.new_histories > 0

let novel_in n = function
  | State -> n.new_states > 0
  | Event -> n.new_events > 0
  | Triple -> n.new_triples > 0
  | Branch -> n.new_branches > 0
  | Fault -> n.new_faults > 0
  | History -> n.new_histories > 0
  | Hb -> n.new_hb > 0

let novel_families n = List.filter (novel_in n) all_family_kinds

(* The other map's symbols, translated into [into]'s on first use. *)
let translator ~into src =
  let xlat = Array.make src.nsyms (-1) in
  fun i ->
    let d = Array.unsafe_get xlat i in
    if d >= 0 then d
    else begin
      let d = sym into src.strs.(i) in
      xlat.(i) <- d;
      d
    end

let absorb_tagged ~into src =
  let x = translator ~into src in
  let merge src_fam dst_fam f1 f2 f3 =
    let fresh = ref 0 in
    for i = 0 to src_fam.n - 1 do
      let a = src_fam.k1.(i) and b = src_fam.k2.(i) and c = src_fam.k3.(i) in
      if family_bump_n dst_fam (f1 a) (f2 b) (f3 c) src_fam.counts.(i) then
        incr fresh
    done;
    !fresh
  in
  let keep v = v in
  let pair v = (x (v lsr sym_bits) lsl sym_bits) lor x (v land sym_mask) in
  let tagged v = (x (v lsr 1) lsl 1) lor (v land 1) in
  let new_states = merge src.states into.states x x keep in
  let new_events = merge src.events into.events x keep keep in
  let new_triples = merge src.triples into.triples x x pair in
  let new_branches = merge src.branches into.branches tagged keep keep in
  let new_faults = merge src.faults into.faults x x keep in
  let new_histories = merge src.histories into.histories x keep keep in
  (* Fingerprint multisets merge like the rest. Raw schedule fingerprints
     never count as novelty — almost every random schedule is unique —
     but new hb fingerprints are reported per family: a semantically new
     partial order is exactly the signal hb-guided fuzzing feeds on. *)
  let merge_fp src dst =
    let fresh = ref 0 in
    Hashtbl.iter
      (fun k n ->
        match Hashtbl.find_opt dst k with
        | Some m -> Hashtbl.replace dst k (m + n)
        | None ->
          incr fresh;
          Hashtbl.replace dst k n)
      src;
    !fresh
  in
  let (_ : int) = merge_fp src.schedules into.schedules in
  let new_hb = merge_fp src.hb into.hb in
  into.executions <- into.executions + src.executions;
  {
    new_states;
    new_events;
    new_triples;
    new_branches;
    new_faults;
    new_histories;
    new_hb;
  }

let absorb ~into src = novel_core (absorb_tagged ~into src)

(* Recording straight into an accumulator: the novelty of everything
   recorded since [mark] is each family's growth, which is exactly what
   absorbing the same recordings as a separate map would report. *)
type mark = int array

let mark t =
  [| t.states.n; t.events.n; t.triples.n; t.branches.n; t.faults.n;
     t.histories.n; Hashtbl.length t.hb |]

let novelty_since t (m : mark) =
  let now = mark t in
  {
    new_states = now.(0) - m.(0);
    new_events = now.(1) - m.(1);
    new_triples = now.(2) - m.(2);
    new_branches = now.(3) - m.(3);
    new_faults = now.(4) - m.(4);
    new_histories = now.(5) - m.(5);
    new_hb = now.(6) - m.(6);
  }

(* --- Reading ----------------------------------------------------------- *)

(* Rendered (report-facing) key strings; these spellings are the public
   format of the table and JSON reports and must stay stable. *)

let render_state t m s = t.strs.(m) ^ "." ^ t.strs.(s)

let render_triple t sender event k3 =
  Printf.sprintf "%s -[%s]-> %s@%s" t.strs.(sender) t.strs.(event)
    t.strs.(k3 lsr sym_bits) t.strs.(k3 land sym_mask)

let render_branch t k1 v bound =
  if k1 land 1 = 0 then Printf.sprintf "%s ? %b" t.strs.(k1 lsr 1) (v = 1)
  else Printf.sprintf "%s ? %d/%d" t.strs.(k1 lsr 1) v bound

let render_fault t kind target = t.strs.(kind) ^ " " ^ t.strs.(target)

let sorted_entries render fam =
  let acc = ref [] in
  for i = fam.n - 1 downto 0 do
    acc := (render fam.k1.(i) fam.k2.(i) fam.k3.(i), fam.counts.(i)) :: !acc
  done;
  List.sort (fun (a, _) (b, _) -> compare a b) !acc

let states t = sorted_entries (fun m s _ -> render_state t m s) t.states
let events t = sorted_entries (fun e _ _ -> t.strs.(e)) t.events
let triples t = sorted_entries (render_triple t) t.triples
let branches t = sorted_entries (render_branch t) t.branches
let faults t = sorted_entries (fun k tg _ -> render_fault t k tg) t.faults
let histories t = sorted_entries (fun p _ _ -> t.strs.(p)) t.histories

let schedules t =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.schedules []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let hb_fingerprints t =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) t.hb []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let equal a b =
  states a = states b && events a = events b && triples a = triples b
  && branches a = branches b
  && faults a = faults b
  && histories a = histories b
  && schedules a = schedules b
  && hb_fingerprints a = hb_fingerprints b
  && a.executions = b.executions

type totals = {
  machine_states : int;
  event_types : int;
  transition_triples : int;
  branch_outcomes : int;
  fault_points : int;
  history_points : int;
  unique_schedules : int;
  partial_orders : int;
  executions : int;
}

let totals t =
  {
    machine_states = t.states.n;
    event_types = t.events.n;
    transition_triples = t.triples.n;
    branch_outcomes = t.branches.n;
    fault_points = t.faults.n;
    history_points = t.histories.n;
    unique_schedules = Hashtbl.length t.schedules;
    partial_orders = Hashtbl.length t.hb;
    executions = t.executions;
  }

(* --- Persistence (campaign save/load) ---------------------------------- *)

(* Versioned, line-oriented, tab-separated dump of the full map — the
   structured keys, not the rendered report strings, so a loaded map
   merges and compares exactly like the original. The parse is strict in
   the Trace.of_string mold: unknown tags, blank lines, non-canonical
   numbers, dangling escapes, duplicate keys and a missing/short trailer
   all fail loudly — a corrupted campaign must not resume as a subtly
   different one. The trailing [end:<entries>] line catches whole-line
   truncation that a line-wise parse would otherwise silently accept. *)

let save_version = "psharp-coverage:1"

let escape_field s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let unescape_field s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec go i =
    if i >= n then ()
    else
      match s.[i] with
      | '\\' ->
        if i + 1 >= n then failwith "Coverage.of_save: dangling escape"
        else begin
          (match s.[i + 1] with
           | '\\' -> Buffer.add_char buf '\\'
           | 't' -> Buffer.add_char buf '\t'
           | 'n' -> Buffer.add_char buf '\n'
           | c ->
             failwith
               (Printf.sprintf "Coverage.of_save: unknown escape \\%c" c));
          go (i + 2)
        end
      | c ->
        Buffer.add_char buf c;
        go (i + 1)
  in
  go 0;
  Buffer.contents buf

let to_save (t : t) =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf save_version;
  Buffer.add_char buf '\n';
  Buffer.add_string buf (Printf.sprintf "executions:%d\n" t.executions);
  let lines = ref [] in
  let entry fields count =
    lines :=
      String.concat "\t" (fields @ [ string_of_int count ]) :: !lines
  in
  let each_family fam f =
    for i = 0 to fam.n - 1 do
      f fam.k1.(i) fam.k2.(i) fam.k3.(i) fam.counts.(i)
    done
  in
  let field i = escape_field t.strs.(i) in
  each_family t.states (fun m s _ c -> entry [ "state"; field m; field s ] c);
  each_family t.events (fun e _ _ c -> entry [ "event"; field e ] c);
  each_family t.triples (fun s e k3 c ->
      entry
        [ "triple"; field s; field e; field (k3 lsr sym_bits);
          field (k3 land sym_mask) ]
        c);
  each_family t.branches (fun k1 v bound c ->
      if k1 land 1 = 0 then
        entry [ "bbool"; field (k1 lsr 1); (if v = 1 then "1" else "0") ] c
      else
        entry
          [ "bint"; field (k1 lsr 1); string_of_int v; string_of_int bound ]
          c);
  each_family t.faults (fun k tgt _ c -> entry [ "fault"; field k; field tgt ] c);
  each_family t.histories (fun p _ _ c -> entry [ "hist"; field p ] c);
  Hashtbl.iter
    (fun fp c -> entry [ "sched"; Printf.sprintf "%016Lx" fp ] c)
    t.schedules;
  Hashtbl.iter
    (fun fp c -> entry [ "hb"; Printf.sprintf "%016Lx" fp ] c)
    t.hb;
  (* canonical order: equal maps save to identical bytes *)
  let sorted = List.sort compare !lines in
  List.iter
    (fun line ->
      Buffer.add_string buf line;
      Buffer.add_char buf '\n')
    sorted;
  Buffer.add_string buf (Printf.sprintf "end:%d\n" (List.length sorted));
  Buffer.contents buf

let canonical_int s =
  match int_of_string_opt s with
  | Some n when string_of_int n = s -> Some n
  | _ -> None

let parse_count line s =
  match canonical_int s with
  | Some n when n > 0 -> n
  | _ ->
    failwith (Printf.sprintf "Coverage.of_save: bad count on line %d" line)

let parse_fingerprint line s =
  let hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  if String.length s = 16 && String.for_all hex s then
    Int64.of_string ("0x" ^ s)
  else
    failwith
      (Printf.sprintf "Coverage.of_save: bad fingerprint on line %d" line)

let of_save data =
  let lines = String.split_on_char '\n' data in
  let lines =
    match List.rev lines with "" :: rest -> List.rev rest | _ -> lines
  in
  let t = create () in
  let str field = sym t (unescape_field field) in
  let seen_schedules = Hashtbl.create 64 and seen_hb = Hashtbl.create 64 in
  let entries = ref 0 in
  let fresh line ok =
    if not ok then
      failwith (Printf.sprintf "Coverage.of_save: duplicate key on line %d" line)
  in
  let file_fp line table seen fp count =
    if Hashtbl.mem seen fp then fresh line false;
    Hashtbl.replace seen fp ();
    Hashtbl.replace table fp count
  in
  let parse_entry line fields =
    incr entries;
    match fields with
    | [ "state"; m; s; c ] ->
      fresh line
        (family_bump_n t.states (str m) (str s) 0 (parse_count line c))
    | [ "event"; e; c ] ->
      fresh line (family_bump_n t.events (str e) 0 0 (parse_count line c))
    | [ "triple"; s; e; r; st; c ] ->
      fresh line
        (family_bump_n t.triples (str s) (str e)
           ((str r lsl sym_bits) lor str st)
           (parse_count line c))
    | [ "bbool"; m; b; c ] ->
      let b =
        match b with
        | "0" -> false
        | "1" -> true
        | _ ->
          failwith
            (Printf.sprintf "Coverage.of_save: bad bool on line %d" line)
      in
      fresh line
        (family_bump_n t.branches (str m lsl 1) (if b then 1 else 0) 0
           (parse_count line c))
    | [ "bint"; m; v; bound; c ] ->
      let int_of s =
        match canonical_int s with
        | Some n -> n
        | None ->
          failwith
            (Printf.sprintf "Coverage.of_save: bad integer on line %d" line)
      in
      fresh line
        (family_bump_n t.branches
           ((str m lsl 1) lor 1)
           (int_of v) (int_of bound) (parse_count line c))
    | [ "fault"; k; tgt; c ] ->
      fresh line
        (family_bump_n t.faults (str k) (str tgt) 0 (parse_count line c))
    | [ "hist"; p; c ] ->
      fresh line
        (family_bump_n t.histories (str p) 0 0 (parse_count line c))
    | [ "sched"; fp; c ] ->
      file_fp line t.schedules seen_schedules (parse_fingerprint line fp)
        (parse_count line c)
    | [ "hb"; fp; c ] ->
      file_fp line t.hb seen_hb (parse_fingerprint line fp)
        (parse_count line c)
    | [ "" ] -> failwith (Printf.sprintf "Coverage.of_save: blank line %d" line)
    | tag :: _ ->
      failwith
        (Printf.sprintf "Coverage.of_save: malformed entry %S on line %d" tag
           line)
    | [] -> failwith (Printf.sprintf "Coverage.of_save: blank line %d" line)
  in
  let rec go lineno saw_end = function
    | [] ->
      if not saw_end then
        failwith "Coverage.of_save: truncated (missing end line)"
    | _ :: _ when saw_end ->
      failwith
        (Printf.sprintf "Coverage.of_save: content after end line %d"
           (lineno - 1))
    | line :: rest ->
      (match String.index_opt line ':' with
       | Some i when String.sub line 0 i = "end" ->
         let n = String.sub line (i + 1) (String.length line - i - 1) in
         (match canonical_int n with
          | Some n when n = !entries -> ()
          | Some _ ->
            failwith
              (Printf.sprintf
                 "Coverage.of_save: entry count mismatch on line %d (file \
                  truncated?)"
                 lineno)
          | None ->
            failwith
              (Printf.sprintf "Coverage.of_save: bad end line %d" lineno));
         go (lineno + 1) true rest
       | _ ->
         parse_entry lineno (String.split_on_char '\t' line);
         go (lineno + 1) saw_end rest)
  in
  (match lines with
   | v :: rest when v = save_version -> begin
     match rest with
     | ex :: rest ->
       (match String.index_opt ex ':' with
        | Some i when String.sub ex 0 i = "executions" ->
          let n = String.sub ex (i + 1) (String.length ex - i - 1) in
          (match canonical_int n with
           | Some n when n >= 0 -> t.executions <- n
           | _ -> failwith "Coverage.of_save: bad executions line")
        | _ -> failwith "Coverage.of_save: missing executions line");
       go 3 false rest
     | [] -> failwith "Coverage.of_save: truncated (missing executions line)"
   end
   | v :: _ ->
     failwith
       (Printf.sprintf "Coverage.of_save: unsupported version line %S" v)
   | [] -> failwith "Coverage.of_save: empty input");
  t

let save ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_save t))

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_save (really_input_string ic len))

(* --- Reporting --------------------------------------------------------- *)

let pp_totals fmt t =
  let s = totals t in
  Format.fprintf fmt
    "%d states, %d event types, %d triples, %d branch outcomes, %d/%d \
     unique schedules"
    s.machine_states s.event_types s.transition_triples s.branch_outcomes
    s.unique_schedules s.executions;
  (* fault-free runs keep the historical one-liner byte-identical *)
  if s.fault_points > 0 then
    Format.fprintf fmt ", %d fault points" s.fault_points;
  (* likewise: only happens-before-tracked runs mention partial orders *)
  if s.partial_orders > 0 then
    Format.fprintf fmt ", %d partial orders" s.partial_orders;
  (* and only history-recording harnesses mention history points *)
  if s.history_points > 0 then
    Format.fprintf fmt ", %d history points" s.history_points

let pp_section fmt ~title ~cap entries =
  let by_count = List.sort (fun (_, a) (_, b) -> compare b a) entries in
  let shown = List.filteri (fun i _ -> i < cap) by_count in
  Format.fprintf fmt "@,%s (%d):" title (List.length entries);
  List.iter
    (fun (key, n) -> Format.fprintf fmt "@,  %8d  %s" n key)
    shown;
  let rest = List.length entries - List.length shown in
  if rest > 0 then Format.fprintf fmt "@,  ... and %d more" rest

let pp_table fmt t =
  Format.fprintf fmt "@[<v>coverage: %a" pp_totals t;
  pp_section fmt ~title:"machine states" ~cap:20 (states t);
  pp_section fmt ~title:"event types" ~cap:20 (events t);
  pp_section fmt ~title:"transition triples" ~cap:20 (triples t);
  pp_section fmt ~title:"branch outcomes" ~cap:20 (branches t);
  if t.faults.n > 0 then
    pp_section fmt ~title:"fault points" ~cap:20 (faults t);
  if t.histories.n > 0 then
    pp_section fmt ~title:"history points" ~cap:20 (histories t);
  Format.fprintf fmt "@]"

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 4096 in
  let s = totals t in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"totals\": {\"machine_states\": %d, \"event_types\": %d, \
        \"transition_triples\": %d, \"branch_outcomes\": %d, \
        \"fault_points\": %d, \"history_points\": %d, \
        \"unique_schedules\": %d, \
        \"partial_orders\": %d, \"executions\": %d},\n"
       s.machine_states s.event_types s.transition_triples s.branch_outcomes
       s.fault_points s.history_points s.unique_schedules s.partial_orders
       s.executions);
  let family name entries ~last =
    Buffer.add_string buf (Printf.sprintf "  \"%s\": {" name);
    List.iteri
      (fun i (key, n) ->
        Buffer.add_string buf
          (Printf.sprintf "%s\n    \"%s\": %d"
             (if i = 0 then "" else ",")
             (json_escape key) n))
      entries;
    Buffer.add_string buf
      (if entries = [] then Printf.sprintf "}%s\n" (if last then "" else ",")
       else Printf.sprintf "\n  }%s\n" (if last then "" else ","))
  in
  family "machine_states" (states t) ~last:false;
  family "event_types" (events t) ~last:false;
  family "transition_triples" (triples t) ~last:false;
  family "branch_outcomes" (branches t) ~last:false;
  family "fault_points" (faults t) ~last:false;
  family "history_points" (histories t) ~last:false;
  family "hb_fingerprints"
    (List.map (fun (fp, n) -> (Printf.sprintf "%Lx" fp, n)) (hb_fingerprints t))
    ~last:false;
  family "schedule_fingerprints"
    (List.map (fun (fp, n) -> (Printf.sprintf "%Lx" fp, n)) (schedules t))
    ~last:true;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
