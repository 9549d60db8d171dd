(* Declarative scenarios, enforced through the runtime's probe.

   The same small interpreter — latching triggers, from/until windows,
   clause states — backs both halves of the subsystem: the *enforcement*
   side (runtime hooks feed facts in; the observer prunes the enabled set
   and answers which fault a send or crash tick is forced to) and the
   *checking* side ([check] re-runs the interpreter over the recorded
   journal and validates every clause obligation with none of the
   enforcement code in the loop). Keeping one
   interpreter makes the conformance battery meaningful: agreement is
   about the fact stream, not about sharing the buggy code path. *)

(* ---------- patterns ---------- *)

type pat = { p_prefix : string; p_glob : bool }

let valid_pat_char c =
  (c >= 'A' && c <= 'Z')
  || (c >= 'a' && c <= 'z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '-'

let pat s =
  let n = String.length s in
  if n = 0 then invalid_arg "Scenario.pat: empty pattern"
  else if String.equal s "*" then { p_prefix = ""; p_glob = true }
  else begin
    let glob = s.[n - 1] = '*' in
    let body = if glob then String.sub s 0 (n - 1) else s in
    if String.length body = 0 then
      invalid_arg "Scenario.pat: empty pattern body";
    String.iter
      (fun c ->
        if not (valid_pat_char c) then
          invalid_arg (Printf.sprintf "Scenario.pat: bad character %C in %S" c s))
      body;
    { p_prefix = body; p_glob = glob }
  end

let pat_matches p s =
  if p.p_glob then String.starts_with ~prefix:p.p_prefix s
  else String.equal p.p_prefix s

let pat_to_string p = p.p_prefix ^ if p.p_glob then "*" else ""

let pat_opt s = try Some (pat s) with Invalid_argument _ -> None

(* state names share the pattern alphabet so the text form stays one-line *)
let valid_state s =
  String.length s > 0 && String.for_all valid_pat_char s

(* ---------- triggers ---------- *)

type trigger =
  | Start
  | At_step of int
  | At_time of int
  | Delivered of pat * int
  | Entered of pat * string
  | Quiet of pat
  | Crashed of pat

let start = Start

let at_step n =
  if n < 0 then invalid_arg "Scenario.at_step: negative step";
  At_step n

let at_time n =
  if n < 0 then invalid_arg "Scenario.at_time: negative time";
  At_time n

let delivered ?(count = 1) p =
  if count < 1 then invalid_arg "Scenario.delivered: count must be >= 1";
  Delivered (p, count)

let entered p state =
  if not (valid_state state) then
    invalid_arg (Printf.sprintf "Scenario.entered: bad state name %S" state);
  Entered (p, state)

let quiet p = Quiet p
let crashed p = Crashed p

let trigger_to_string = function
  | Start -> "start"
  | At_step n -> Printf.sprintf "step(%d)" n
  | At_time n -> Printf.sprintf "time(%d)" n
  | Delivered (p, 1) -> Printf.sprintf "delivered(%s)" (pat_to_string p)
  | Delivered (p, n) -> Printf.sprintf "delivered(%s x%d)" (pat_to_string p) n
  | Entered (p, s) -> Printf.sprintf "state(%s,%s)" (pat_to_string p) s
  | Quiet p -> Printf.sprintf "quiet(%s)" (pat_to_string p)
  | Crashed p -> Printf.sprintf "crashed(%s)" (pat_to_string p)

(* ---------- clauses ---------- *)

type window = { w_from : trigger; w_until : trigger }

type clause =
  | Order of pat * pat
  | Crash_when of pat * trigger
  | Partition of pat * pat * window
  | Drop_link of pat * pat * window
  | Dup_link of pat * pat * window
  | Delay_link of pat * pat * int * window
  | Pause of pat * window
  | Focus of pat * window

let window ~from_ ~until_ =
  (match until_ with
   | Start -> invalid_arg "Scenario: an until trigger of start never opens the window"
   | _ -> ());
  { w_from = from_; w_until = until_ }

let order a b =
  if pat_to_string a = pat_to_string b then
    invalid_arg "Scenario.order: identical patterns would deadlock";
  Order (a, b)

let crash_when v ~after = Crash_when (v, after)

let partition a b ~from_ ~until_ = Partition (a, b, window ~from_ ~until_)
let drop_link ~src ~dst ~from_ ~until_ = Drop_link (src, dst, window ~from_ ~until_)
let dup_link ~src ~dst ~from_ ~until_ = Dup_link (src, dst, window ~from_ ~until_)

let delay_link ~src ~dst ~latency ~from_ ~until_ =
  if latency < 1 then invalid_arg "Scenario.delay_link: latency must be >= 1";
  Delay_link (src, dst, latency, window ~from_ ~until_)

let pause m ~from_ ~until_ = Pause (m, window ~from_ ~until_)
let focus m ~from_ ~until_ = Focus (m, window ~from_ ~until_)

let window_to_string w =
  Printf.sprintf "from %s until %s" (trigger_to_string w.w_from)
    (trigger_to_string w.w_until)

let clause_to_string = function
  | Order (a, b) ->
    Printf.sprintf "order %s before %s" (pat_to_string a) (pat_to_string b)
  | Crash_when (v, t) ->
    Printf.sprintf "crash %s after %s" (pat_to_string v) (trigger_to_string t)
  | Partition (a, b, w) ->
    Printf.sprintf "partition %s|%s %s" (pat_to_string a) (pat_to_string b)
      (window_to_string w)
  | Drop_link (s, d, w) ->
    Printf.sprintf "drop %s->%s %s" (pat_to_string s) (pat_to_string d)
      (window_to_string w)
  | Dup_link (s, d, w) ->
    Printf.sprintf "dup %s->%s %s" (pat_to_string s) (pat_to_string d)
      (window_to_string w)
  | Delay_link (s, d, lat, w) ->
    Printf.sprintf "delay %s->%s lat=%d %s" (pat_to_string s) (pat_to_string d)
      lat (window_to_string w)
  | Pause (m, w) ->
    Printf.sprintf "pause %s %s" (pat_to_string m) (window_to_string w)
  | Focus (m, w) ->
    Printf.sprintf "focus %s %s" (pat_to_string m) (window_to_string w)

type t = clause list

let clauses t = t

let make cs =
  if cs = [] then invalid_arg "Scenario.make: empty scenario";
  let rec dup_check seen = function
    | [] -> ()
    | c :: rest ->
      let s = clause_to_string c in
      if List.mem s seen then
        invalid_arg (Printf.sprintf "Scenario.make: duplicate clause %S" s);
      dup_check (s :: seen) rest
  in
  dup_check [] cs;
  cs

let to_string t =
  String.concat "" (List.map (fun c -> clause_to_string c ^ "\n") t)

(* ---------- strict parser ---------- *)

(* find the first occurrence of [sub] in [s]; split around it *)
let cut sub s =
  let n = String.length s and k = String.length sub in
  let rec go i =
    if i + k > n then None
    else if String.equal (String.sub s i k) sub then
      Some (String.sub s 0 i, String.sub s (i + k) (n - i - k))
    else go (i + 1)
  in
  go 0

(* canonical non-negative integer: digits only, no leading zero *)
let parse_int s =
  let n = String.length s in
  if n = 0 then None
  else if not (String.for_all (fun c -> c >= '0' && c <= '9') s) then None
  else if n > 1 && s.[0] = '0' then None
  else int_of_string_opt s

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let parse_pat s =
  match pat_opt s with
  | Some p -> Ok p
  | None -> Error (Printf.sprintf "bad pattern %S" s)

let paren_arg ~keyword s =
  let k = keyword ^ "(" in
  if String.starts_with ~prefix:k s && String.length s > String.length k
     && s.[String.length s - 1] = ')'
  then Some (String.sub s (String.length k) (String.length s - String.length k - 1))
  else None

let parse_trigger s =
  if String.equal s "start" then Ok Start
  else
    match paren_arg ~keyword:"step" s with
    | Some body -> (
        match parse_int body with
        | Some n -> Ok (At_step n)
        | None -> Error (Printf.sprintf "bad step trigger %S" s))
    | None ->
      match paren_arg ~keyword:"time" s with
      | Some body -> (
          match parse_int body with
          | Some n -> Ok (At_time n)
          | None -> Error (Printf.sprintf "bad time trigger %S" s))
      | None ->
        match paren_arg ~keyword:"delivered" s with
        | Some body -> (
            match cut " x" body with
            | None ->
              let* p = parse_pat body in
              Ok (Delivered (p, 1))
            | Some (pp, cc) -> (
                let* p = parse_pat pp in
                match parse_int cc with
                | Some n when n >= 2 -> Ok (Delivered (p, n))
                | _ -> Error (Printf.sprintf "bad delivery count in %S" s)))
        | None ->
          match paren_arg ~keyword:"state" s with
          | Some body -> (
              match cut "," body with
              | Some (mp, st) when valid_state st ->
                let* p = parse_pat mp in
                Ok (Entered (p, st))
              | _ -> Error (Printf.sprintf "bad state trigger %S" s))
          | None ->
            match paren_arg ~keyword:"quiet" s with
            | Some body ->
              let* p = parse_pat body in
              Ok (Quiet p)
            | None ->
              match paren_arg ~keyword:"crashed" s with
              | Some body ->
                let* p = parse_pat body in
                Ok (Crashed p)
              | None -> Error (Printf.sprintf "unknown trigger %S" s)

let parse_window s =
  if not (String.starts_with ~prefix:"from " s) then
    Error (Printf.sprintf "expected window, got %S" s)
  else
    let rest = String.sub s 5 (String.length s - 5) in
    match cut " until " rest with
    | None -> Error (Printf.sprintf "window missing until: %S" s)
    | Some (f, u) ->
      let* wf = parse_trigger f in
      let* wu = parse_trigger u in
      (try Ok (window ~from_:wf ~until_:wu)
       with Invalid_argument m -> Error m)

let parse_link s =
  match cut "->" s with
  | None -> Error (Printf.sprintf "expected link SRC->DST, got %S" s)
  | Some (a, b) ->
    let* src = parse_pat a in
    let* dst = parse_pat b in
    Ok (src, dst)

let parse_clause line =
  let result =
    match cut " " line with
    | None -> Error (Printf.sprintf "unparseable clause %S" line)
    | Some (kw, rest) -> (
        match kw with
        | "order" -> (
            match cut " before " rest with
            | None -> Error (Printf.sprintf "order clause missing before: %S" line)
            | Some (a, b) ->
              let* pa = parse_pat a in
              let* pb = parse_pat b in
              (try Ok (order pa pb) with Invalid_argument m -> Error m))
        | "crash" -> (
            match cut " after " rest with
            | None -> Error (Printf.sprintf "crash clause missing after: %S" line)
            | Some (v, t) ->
              let* pv = parse_pat v in
              let* trig = parse_trigger t in
              Ok (crash_when pv ~after:trig))
        | "partition" -> (
            match cut " " rest with
            | None -> Error (Printf.sprintf "partition clause missing window: %S" line)
            | Some (sides, w) -> (
                match cut "|" sides with
                | None -> Error (Printf.sprintf "partition sides need A|B: %S" line)
                | Some (a, b) ->
                  let* pa = parse_pat a in
                  let* pb = parse_pat b in
                  let* win = parse_window w in
                  Ok (Partition (pa, pb, win))))
        | "drop" | "dup" -> (
            match cut " " rest with
            | None -> Error (Printf.sprintf "%s clause missing window: %S" kw line)
            | Some (lnk, w) ->
              let* src, dst = parse_link lnk in
              let* win = parse_window w in
              Ok
                (if String.equal kw "drop" then Drop_link (src, dst, win)
                 else Dup_link (src, dst, win)))
        | "delay" -> (
            match cut " lat=" rest with
            | None -> Error (Printf.sprintf "delay clause missing lat=: %S" line)
            | Some (lnk, rest2) -> (
                match cut " " rest2 with
                | None -> Error (Printf.sprintf "delay clause missing window: %S" line)
                | Some (latstr, w) -> (
                    let* src, dst = parse_link lnk in
                    let* win = parse_window w in
                    match parse_int latstr with
                    | Some lat when lat >= 1 -> Ok (Delay_link (src, dst, lat, win))
                    | _ -> Error (Printf.sprintf "bad latency in %S" line))))
        | "pause" | "focus" -> (
            match cut " " rest with
            | None -> Error (Printf.sprintf "%s clause missing window: %S" kw line)
            | Some (m, w) ->
              let* pm = parse_pat m in
              let* win = parse_window w in
              Ok (if String.equal kw "pause" then Pause (pm, win) else Focus (pm, win)))
        | _ -> Error (Printf.sprintf "unknown clause keyword %S" kw))
  in
  match result with
  | Error _ as e -> e
  | Ok c ->
    (* canonical-form guarantee: the parse must render back to the exact
       input line, so every accepted spelling is the canonical one *)
    if String.equal (clause_to_string c) line then Ok c
    else Error (Printf.sprintf "non-canonical clause spelling %S" line)

let of_string s =
  if String.length s = 0 then Error "empty scenario"
  else if s.[String.length s - 1] <> '\n' then
    Error "scenario must end with a newline"
  else begin
    let lines = String.split_on_char '\n' (String.sub s 0 (String.length s - 1)) in
    let rec go acc seen lineno = function
      | [] -> Ok (List.rev acc)
      | "" :: _ -> Error (Printf.sprintf "line %d: blank clause" lineno)
      | line :: rest -> (
          if List.mem line seen then
            Error (Printf.sprintf "line %d: duplicate clause %S" lineno line)
          else
            match parse_clause line with
            | Ok c -> go (c :: acc) (line :: seen) (lineno + 1) rest
            | Error m -> Error (Printf.sprintf "line %d: %s" lineno m))
    in
    match go [] [] 1 lines with
    | Error _ as e -> e
    | Ok [] -> Error "empty scenario"
    | Ok cs -> Ok cs
  end

(* ---------- fault arming ---------- *)

let crash_slots t =
  List.length (List.filter (function Crash_when _ -> true | _ -> false) t)

let link_needs = function
  | Partition _ | Drop_link _ -> Some Fault.Drop
  | Dup_link _ -> Some Fault.Duplicate
  | Delay_link _ -> Some Fault.Delay
  | _ -> None

let max_latency t =
  List.fold_left
    (fun acc c -> match c with Delay_link (_, _, l, _) -> max acc l | _ -> acc)
    0 t

(* budget headroom per forced-fault window: enough that a scenario window
   does not silently go inert mid-run because random injections elsewhere
   drained the shared budget *)
let window_budget = 48

let arm t (spec : Fault.spec) =
  let crashes = crash_slots t in
  let needs k = List.exists (fun c -> link_needs c = Some k) t in
  let needs_drop = needs Fault.Drop in
  let needs_dup = needs Fault.Duplicate in
  let max_lat = max_latency t in
  let link_windows =
    List.length (List.filter (fun c -> link_needs c <> None) t)
  in
  if crashes = 0 && link_windows = 0 then spec
  else
    {
      Fault.drop = spec.Fault.drop || needs_drop;
      duplicate = spec.Fault.duplicate || needs_dup;
      delay = spec.Fault.delay || max_lat > 0;
      crash = spec.Fault.crash || crashes > 0;
      max_delay = max spec.Fault.max_delay max_lat;
      budget = spec.Fault.budget + crashes + (window_budget * link_windows);
    }

let check_spec t (faults : Fault.spec) =
  let needs k = List.exists (fun c -> link_needs c = Some k) t in
  let unarmed what =
    Error
      (Printf.sprintf
         "scenario needs %s but the fault spec does not arm it (apply \
          Scenario.arm)"
         what)
  in
  if needs Fault.Drop && not faults.Fault.drop then unarmed "drop"
  else if needs Fault.Duplicate && not faults.Fault.duplicate then
    unarmed "dup"
  else if needs Fault.Delay && not faults.Fault.delay then unarmed "delay"
  else if max_latency t > faults.Fault.max_delay then
    unarmed "a large enough max_delay"
  else if crash_slots t > 0 && not faults.Fault.crash then unarmed "crash"
  else if
    List.exists (fun c -> link_needs c <> None) t && faults.Fault.budget <= 0
  then unarmed "a positive budget"
  else Ok ()

(* ---------- journal ---------- *)

type fate = Passed | Dropped | Dupped | Delayed

type journal_entry =
  | J_deliver of {
      step : int;
      time : int;
      sender : string;
      receiver : string;
      event : string;
    }
  | J_send of {
      step : int;
      time : int;
      sender : string;
      target : string;
      event : string;
      fate : fate;
      budget : int;
    }
  | J_state of { step : int; machine : string; state : string }
  | J_crash of { step : int; time : int; machine : string }
  | J_quiet of { step : int; machine : string }

let fate_to_string = function
  | Passed -> "pass"
  | Dropped -> "drop"
  | Dupped -> "dup"
  | Delayed -> "delay"

let journal_entry_to_string = function
  | J_deliver { step; time; sender; receiver; event } ->
    Printf.sprintf "deliver step=%d time=%d %s->%s %s" step time sender receiver
      event
  | J_send { step; time; sender; target; event; fate; budget } ->
    Printf.sprintf "send step=%d time=%d %s->%s %s fate=%s budget=%d" step time
      sender target event (fate_to_string fate) budget
  | J_state { step; machine; state } ->
    Printf.sprintf "state step=%d %s=%s" step machine state
  | J_crash { step; time; machine } ->
    Printf.sprintf "crash step=%d time=%d %s" step time machine
  | J_quiet { step; machine } -> Printf.sprintf "quiet step=%d %s" step machine

(* ---------- the shared interpreter ---------- *)

type fact =
  | F_step of int
  | F_time of int
  | F_deliver of string
  | F_state of string * string
  | F_quiet of string
  | F_crash of string

type tstate = { trig : trigger; mutable t_fired : bool; mutable t_count : int }

let tstate_of trig =
  { trig; t_fired = (match trig with Start -> true | _ -> false); t_count = 0 }

let tstate_apply ts fact =
  if not ts.t_fired then
    match (ts.trig, fact) with
    | At_step n, F_step s -> if s >= n then ts.t_fired <- true
    | At_time n, F_time tm -> if tm >= n then ts.t_fired <- true
    | Delivered (p, k), F_deliver ev ->
      if pat_matches p ev then begin
        ts.t_count <- ts.t_count + 1;
        if ts.t_count >= k then ts.t_fired <- true
      end
    | Entered (p, s0), F_state (m, s) ->
      if pat_matches p m && String.equal s0 s then ts.t_fired <- true
    | Quiet p, F_quiet m -> if pat_matches p m then ts.t_fired <- true
    | Crashed p, F_crash m -> if pat_matches p m then ts.t_fired <- true
    | _ -> ()

type wstate = { ws_from : tstate; ws_until : tstate }

let wstate_of w = { ws_from = tstate_of w.w_from; ws_until = tstate_of w.w_until }
let ws_active ws = ws.ws_from.t_fired && not ws.ws_until.t_fired

(* the until trigger only arms once the window has opened: events before
   [from] fires never count toward closing it. A fact that opens the
   window is immediately offered to the until trigger as well. *)
let ws_apply ws fact =
  tstate_apply ws.ws_from fact;
  if ws.ws_from.t_fired then tstate_apply ws.ws_until fact

type forced_kind = FK_drop | FK_dup | FK_delay of int

let fate_of_fk = function
  | FK_drop -> Dropped
  | FK_dup -> Dupped
  | FK_delay _ -> Delayed

type cstate =
  | CS_order of { a : pat; b : pat; mutable sat : bool }
  | CS_crash of { victim : pat; after : tstate; mutable used : bool }
  | CS_link of {
      fk : forced_kind;
      lmatches : string -> string -> bool;  (* sender name -> target name *)
      win : wstate;
    }
  | CS_pause of { m : pat; win : wstate }
  | CS_focus of { m : pat; win : wstate }

(* partition side membership: the [b] side wins on overlap, so
   [partition * N2] reads as "N2 against everyone else" *)
let cross a b s t =
  let side name =
    if pat_matches b name then `B else if pat_matches a name then `A else `N
  in
  match (side s, side t) with `A, `B | `B, `A -> true | _ -> false

let cstate_of = function
  | Order (a, b) -> CS_order { a; b; sat = false }
  | Crash_when (v, trig) ->
    CS_crash { victim = v; after = tstate_of trig; used = false }
  | Partition (a, b, w) ->
    CS_link { fk = FK_drop; lmatches = cross a b; win = wstate_of w }
  | Drop_link (s, d, w) ->
    CS_link
      {
        fk = FK_drop;
        lmatches = (fun sn tn -> pat_matches s sn && pat_matches d tn);
        win = wstate_of w;
      }
  | Dup_link (s, d, w) ->
    CS_link
      {
        fk = FK_dup;
        lmatches = (fun sn tn -> pat_matches s sn && pat_matches d tn);
        win = wstate_of w;
      }
  | Delay_link (s, d, lat, w) ->
    CS_link
      {
        fk = FK_delay lat;
        lmatches = (fun sn tn -> pat_matches s sn && pat_matches d tn);
        win = wstate_of w;
      }
  | Pause (m, w) -> CS_pause { m; win = wstate_of w }
  | Focus (m, w) -> CS_focus { m; win = wstate_of w }

let cstate_apply cs fact =
  match cs with
  | CS_order o -> (
      match fact with
      | F_deliver ev -> if (not o.sat) && pat_matches o.a ev then o.sat <- true
      | _ -> ())
  | CS_crash c -> tstate_apply c.after fact
  | CS_link l -> ws_apply l.win fact
  | CS_pause p -> ws_apply p.win fact
  | CS_focus f -> ws_apply f.win fact

let apply_fact states fact = Array.iter (fun cs -> cstate_apply cs fact) states

(* first matching active link clause wins — both the observer and the
   checker use this exact rule, so conflicting link clauses resolve
   identically on both sides *)
let forced_for states ~sender ~target =
  let n = Array.length states in
  let rec go i =
    if i >= n then None
    else
      match states.(i) with
      | CS_link l when ws_active l.win && l.lmatches sender target -> Some l.fk
      | _ -> go (i + 1)
  in
  go 0

(* ---------- per-execution observer ---------- *)

module Obs = struct
  type scenario = t

  (* the send [pre_send] announced, journaled once [sent] knows its fate *)
  type send_ctx = {
    sc_step : int;
    sc_time : int;
    sc_sender : string;
    sc_target : string;
    sc_event : string;
    sc_budget : int;
  }

  type t = {
    sc : scenario;
    steer : bool;
    states : cstate array;
    crash_slots : int;
    mutable names : string array;
    mutable n_names : int;
    mutable seen_enabled : bool array;
    mutable quieted : bool array;
    mutable now_enabled : bool array;
    mutable scratch : int array;
    mutable peek : int -> string option;
    mutable send : send_ctx;
    mutable journal_rev : journal_entry list;
    mutable wedges : int;
    mutable violations_rev : string list;
    mutable crashed_by_us : string list;
    has_order : bool;
    has_pause : bool;
    has_focus : bool;
  }

  let scenario o = o.sc

  let create sc ~faults ~steer =
    (match check_spec sc faults with
     | Ok () -> ()
     | Error m -> invalid_arg ("Scenario.Obs.create: " ^ m));
    {
      sc;
      steer;
      states = Array.of_list (List.map cstate_of sc);
      crash_slots = crash_slots sc;
      names = Array.make 8 "?";
      n_names = 0;
      seen_enabled = Array.make 8 false;
      quieted = Array.make 8 false;
      now_enabled = Array.make 8 false;
      scratch = [||];
      peek = (fun _ -> None);
      send =
        { sc_step = 0; sc_time = 0; sc_sender = "-"; sc_target = "-";
          sc_event = "-"; sc_budget = 0 };
      journal_rev = [];
      wedges = 0;
      violations_rev = [];
      crashed_by_us = [];
      has_order = List.exists (function Order _ -> true | _ -> false) sc;
      has_pause = List.exists (function Pause _ -> true | _ -> false) sc;
      has_focus = List.exists (function Focus _ -> true | _ -> false) sc;
    }

  let grow arr n fill =
    if n < Array.length arr then arr
    else begin
      let bigger = Array.make (max 8 (2 * (n + 1))) fill in
      Array.blit arr 0 bigger 0 (Array.length arr);
      bigger
    end

  let name_of o i =
    if i < 0 then "-" else if i < o.n_names then o.names.(i) else "?"

  let push o e = o.journal_rev <- e :: o.journal_rev
  let fact o f = apply_fact o.states f

  let on_create o ~index ~name =
    o.names <- grow o.names index "?";
    o.seen_enabled <- grow o.seen_enabled index false;
    o.quieted <- grow o.quieted index false;
    o.now_enabled <- grow o.now_enabled index false;
    o.names.(index) <- name;
    if index >= o.n_names then o.n_names <- index + 1

  let on_state o ~step ~index ~state =
    fact o (F_step step);
    let m = name_of o index in
    push o (J_state { step; machine = m; state });
    fact o (F_state (m, state))

  let on_deliver o ~step ~time ~sender ~receiver ~event =
    fact o (F_step step);
    fact o (F_time time);
    push o
      (J_deliver
         { step; time; sender = name_of o sender; receiver = name_of o receiver;
           event });
    fact o (F_deliver event)

  let on_crash o ~step ~time ~target =
    fact o (F_step step);
    fact o (F_time time);
    let m = name_of o target in
    push o (J_crash { step; time; machine = m });
    fact o (F_crash m)

  let pre_send o ~step ~time ~sender ~target ~event ~budget =
    fact o (F_step step);
    fact o (F_time time);
    let sn = name_of o sender and tn = name_of o target in
    o.send <-
      { sc_step = step; sc_time = time; sc_sender = sn; sc_target = tn;
        sc_event = event; sc_budget = budget };
    if o.steer then forced_for o.states ~sender:sn ~target:tn else None

  let sent o fate =
    let s = o.send in
    push o
      (J_send
         { step = s.sc_step; time = s.sc_time; sender = s.sc_sender;
           target = s.sc_target; event = s.sc_event; fate;
           budget = s.sc_budget })

  let crash_slots o = o.crash_slots
  let set_peek o f = o.peek <- f
  let journal o = List.rev o.journal_rev
  let wedges o = o.wedges
  let violations o = List.rev o.violations_rev

  (* Pick the first eligible crash clause and its victim, marking the
     clause used; prefers victims this scenario has not crashed yet so
     stacked clauses roll through the fleet instead of hammering one
     machine. Returns the victim's index in [victims] (the fault
     driver's choose order). *)
  let pick_crash o victims =
    let n = Array.length o.states in
    let rec go i =
      if i >= n then None
      else
        match o.states.(i) with
        | CS_crash c when c.after.t_fired && not c.used -> (
            let matching =
              List.mapi (fun idx name -> (idx, name)) victims
              |> List.filter (fun (_, name) -> pat_matches c.victim name)
            in
            match matching with
            | [] -> go (i + 1)
            | _ ->
              let idx, name =
                match
                  List.find_opt
                    (fun (_, name) -> not (List.mem name o.crashed_by_us))
                    matching
                with
                | Some x -> x
                | None -> List.hd matching
              in
              c.used <- true;
              o.crashed_by_us <- name :: o.crashed_by_us;
              Some idx)
        | _ -> go (i + 1)
    in
    go 0

  (* crashes fire exactly when an eligible clause demands one *)
  let crash_victim o ~step ~victims =
    fact o (F_step step);
    if not o.steer then `Draw
    else match pick_crash o victims with Some i -> `Crash i | None -> `Skip

  (* quiescence: a machine seen enabled before and absent now has settled
     at least once — latch it and tell the triggers *)
  let latch_quiet o ~enabled ~n ~step =
    let cap = o.n_names in
    if cap > 0 then begin
      Array.fill o.now_enabled 0 (Array.length o.now_enabled) false;
      for i = 0 to n - 1 do
        let m = enabled.(i) in
        if m < Array.length o.now_enabled then o.now_enabled.(m) <- true
      done;
      for m = 0 to cap - 1 do
        if o.now_enabled.(m) then o.seen_enabled.(m) <- true
        else if o.seen_enabled.(m) && not o.quieted.(m) then begin
          o.quieted.(m) <- true;
          let name = name_of o m in
          push o (J_quiet { step; machine = name });
          fact o (F_quiet name)
        end
      done
    end

  let schedule o (strategy : Strategy.t) ~enabled ~n ~step =
    fact o (F_step step);
    latch_quiet o ~enabled ~n ~step;
    if not o.steer then strategy.next_schedule ~enabled ~n ~step
    else begin
      let states = o.states in
      let ns = Array.length states in
      let focus_live =
        o.has_focus
        &&
        let live = ref false in
        for i = 0 to ns - 1 do
          match states.(i) with
          | CS_focus f when ws_active f.win ->
            let any = ref false in
            for k = 0 to n - 1 do
              if pat_matches f.m (name_of o enabled.(k)) then any := true
            done;
            if !any then live := true
          | _ -> ()
        done;
        !live
      in
      let keep m =
        let name = name_of o m in
        let pruned = ref false in
        if o.has_order then begin
          match o.peek m with
          | None -> ()
          | Some ev ->
            for i = 0 to ns - 1 do
              match states.(i) with
              | CS_order oc when (not oc.sat) && pat_matches oc.b ev ->
                pruned := true
              | _ -> ()
            done
        end;
        if (not !pruned) && o.has_pause then
          for i = 0 to ns - 1 do
            match states.(i) with
            | CS_pause p when ws_active p.win && pat_matches p.m name ->
              pruned := true
            | _ -> ()
          done;
        if (not !pruned) && focus_live then begin
          let matched = ref false in
          for i = 0 to ns - 1 do
            match states.(i) with
            | CS_focus f when ws_active f.win && pat_matches f.m name ->
              matched := true
            | _ -> ()
          done;
          if not !matched then pruned := true
        end;
        not !pruned
      in
      let choice =
        if not (o.has_order || o.has_pause || focus_live) then
          strategy.next_schedule ~enabled ~n ~step
        else begin
          o.scratch <- grow o.scratch n 0;
          let n' = ref 0 in
          for i = 0 to n - 1 do
            let m = enabled.(i) in
            if keep m then begin
              o.scratch.(!n') <- m;
              incr n'
            end
          done;
          if !n' > 0 then strategy.next_schedule ~enabled:o.scratch ~n:!n' ~step
          else begin
            (* constraint pruning emptied the set: admit everything rather
               than manufacture a deadlock, and count the wedge — the
               conformance battery requires this counter to stay at zero *)
            o.wedges <- o.wedges + 1;
            strategy.next_schedule ~enabled ~n ~step
          end
        end
      in
      (* focus clauses leave no dequeue record for [check], so any post-
         wedge bypass is caught here instead *)
      if focus_live then
        for i = 0 to ns - 1 do
          match states.(i) with
          | CS_focus f when ws_active f.win ->
            let any = ref false in
            for k = 0 to n - 1 do
              if pat_matches f.m (name_of o enabled.(k)) then any := true
            done;
            if !any && not (pat_matches f.m (name_of o choice)) then
              o.violations_rev <-
                Printf.sprintf
                  "focus %s bypassed at step %d: scheduled %s while a match \
                   was enabled"
                  (pat_to_string f.m) step (name_of o choice)
                :: o.violations_rev
          | _ -> ()
        done;
      choice
    end
end

(* ---------- the independent checker ---------- *)

let check t journal =
  let states = Array.of_list (List.map cstate_of t) in
  let has_crash = crash_slots t > 0 in
  let viols = ref [] in
  let add v = viols := v :: !viols in
  List.iter
    (fun entry ->
      match entry with
      | J_state { step; machine; state } ->
        apply_fact states (F_step step);
        apply_fact states (F_state (machine, state))
      | J_quiet { step; machine } ->
        apply_fact states (F_step step);
        apply_fact states (F_quiet machine)
      | J_deliver { step; time; sender = _; receiver; event } ->
        apply_fact states (F_step step);
        apply_fact states (F_time time);
        Array.iter
          (fun cs ->
            match cs with
            | CS_order o when (not o.sat) && pat_matches o.b event ->
              add
                (Printf.sprintf
                   "order %s before %s: %s delivered to %s at step %d before \
                    any %s"
                   (pat_to_string o.a) (pat_to_string o.b) event receiver step
                   (pat_to_string o.a))
            | CS_pause p when ws_active p.win && pat_matches p.m receiver ->
              add
                (Printf.sprintf
                   "pause %s: %s dequeued %s at step %d inside the window"
                   (pat_to_string p.m) receiver event step)
            | _ -> ())
          states;
        apply_fact states (F_deliver event)
      | J_send { step; time; sender; target; event; fate; budget } ->
        apply_fact states (F_step step);
        apply_fact states (F_time time);
        if budget > 0 then (
          match forced_for states ~sender ~target with
          | Some fk ->
            let expect = fate_of_fk fk in
            if fate <> expect then
              add
                (Printf.sprintf
                   "link clause: %s->%s %s at step %d resolved %s, expected %s"
                   sender target event step (fate_to_string fate)
                   (fate_to_string expect))
          | None -> ())
      | J_crash { step; time; machine } ->
        apply_fact states (F_step step);
        apply_fact states (F_time time);
        if has_crash then begin
          let n = Array.length states in
          let rec claim i =
            if i >= n then
              add
                (Printf.sprintf
                   "crash of %s at step %d not licensed by any fired crash \
                    clause"
                   machine step)
            else
              match states.(i) with
              | CS_crash c
                when c.after.t_fired && (not c.used)
                     && pat_matches c.victim machine ->
                c.used <- true
              | _ -> claim (i + 1)
          in
          claim 0
        end;
        apply_fact states (F_crash machine))
    journal;
  if !viols = [] then Ok () else Error (List.rev !viols)
