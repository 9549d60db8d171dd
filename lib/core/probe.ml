(* Coverage's view of the machines: name and declared-state symbols per
   creation index, interned once at creation and at each state change so
   recording a delivery hashes no string. *)
type cov = {
  map : Coverage.t;
  dash : int;  (* the symbol of state "-" *)
  mutable n : int;  (* machines created *)
  mutable names : int array;
  mutable states : string array;
      (* the declared state, compared physically: a state re-declared by
         the same string is not interned again *)
  mutable syms : int array;  (* the symbol of [states] *)
}

type t = { cov : cov option; hb : Hb.t option; sc : Scenario.Obs.t option }

let none = { cov = None; hb = None; sc = None }

let make ~coverage ~hb ~scenario =
  match (coverage, hb, scenario) with
  | None, None, None -> none
  | _ ->
    let cov map =
      { map; dash = Coverage.sym map "-"; n = 0; names = [||]; states = [||];
        syms = [||] }
    in
    { cov = Option.map cov coverage; hb; sc = scenario }

(* The family bodies stay out of line; only the dispatch is inlined into
   the runtime, so a family that is off costs one match per event. *)

let grow a fill =
  let b = Array.make (max 8 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let cov_create c ~index ~name =
  if index >= Array.length c.names then begin
    c.names <- grow c.names (-1);
    c.states <- grow c.states "-";
    c.syms <- grow c.syms (-1)
  end;
  c.names.(index) <- Coverage.sym c.map name;
  c.states.(index) <- "-";
  c.syms.(index) <- c.dash;
  c.n <- index + 1;
  Coverage.visit_state_sym c.map ~machine:c.names.(index) ~state:c.dash

let cov_state c ~machine state =
  if c.states.(machine) != state then begin
    c.states.(machine) <- state;
    c.syms.(machine) <- Coverage.sym c.map state
  end;
  Coverage.visit_state_sym c.map ~machine:c.names.(machine)
    ~state:c.syms.(machine)

let cov_deliver c ~sender ~receiver e =
  let sender =
    if sender >= 0 && sender < c.n then c.names.(sender)
    else Coverage.sym c.map "<external>"
  in
  Coverage.deliver_sym c.map ~sender ~event:(Coverage.event_sym c.map e)
    ~receiver:c.names.(receiver) ~state:c.syms.(receiver)

let[@inline] create p ~parent ~index ~name =
  (match p.cov with Some c -> cov_create c ~index ~name | None -> ());
  (match p.sc with
   | Some o -> Scenario.Obs.on_create o ~index ~name
   | None -> ());
  match p.hb with Some h -> Hb.on_create h ~parent ~child:index | None -> ()

let[@inline] send p ~target =
  match p.hb with Some h -> Hb.on_send h ~target | None -> -1

let[@inline] send_later p ~target =
  match p.hb with Some h -> Hb.on_send_delayed h ~target | None -> -1

let[@inline] touch p ~target =
  match p.hb with Some h -> Hb.on_touch h ~target | None -> ()

let[@inline] arrive p ~target ~stamp =
  match p.hb with
  | Some h when stamp >= 0 -> Hb.on_delayed_delivery h ~target ~msg:stamp
  | _ -> ()

let[@inline] start p ~machine =
  match p.hb with Some h -> Hb.begin_step h ~machine ~msg:(-1) | None -> ()

let[@inline] deliver p ~step ~time ~sender ~receiver ~stamp e =
  (match p.hb with
   | Some h -> Hb.begin_step h ~machine:receiver ~msg:stamp
   | None -> ());
  (match p.cov with Some c -> cov_deliver c ~sender ~receiver e | None -> ());
  match p.sc with
  | Some o ->
    Scenario.Obs.on_deliver o ~step ~time ~sender ~receiver
      ~event:(Event.name e)
  | None -> ()

let[@inline] choose_bool p ~machine b =
  (match p.hb with Some h -> Hb.on_bool h b | None -> ());
  match p.cov with
  | Some c -> Coverage.branch_bool_sym c.map ~machine:c.names.(machine) b
  | None -> ()

let[@inline] choose_int p ~machine ~bound i =
  (match p.hb with Some h -> Hb.on_int h i | None -> ());
  match p.cov with
  | Some c -> Coverage.branch_int_sym c.map ~machine:c.names.(machine) ~bound i
  | None -> ()

let[@inline] state p ~step ~machine state =
  (match p.sc with
   | Some o -> Scenario.Obs.on_state o ~step ~index:machine ~state
   | None -> ());
  match p.cov with Some c -> cov_state c ~machine state | None -> ()

let[@inline] fault p ~kind ~target =
  match p.cov with Some c -> Coverage.fault c.map ~kind ~target | None -> ()

let[@inline] crash p ~step ~time ~target =
  (match p.cov with
   | Some c ->
     c.states.(target) <- "-";
     c.syms.(target) <- c.dash
   | None -> ());
  (match p.hb with Some h -> Hb.on_crash h ~target | None -> ());
  match p.sc with
  | Some o -> Scenario.Obs.on_crash o ~step ~time ~target
  | None -> ()

let[@inline] notify p ~monitor =
  match p.hb with Some h -> Hb.on_notify h ~monitor | None -> ()

let[@inline] history p point =
  match p.cov with
  | Some c -> Coverage.history c.map ~point:(Lazy.force point)
  | None -> ()

let[@inline] pre_send p ~step ~time ~sender ~target ~budget e =
  match p.sc with
  | Some o ->
    Scenario.Obs.pre_send o ~step ~time ~sender ~target ~event:(Event.name e)
      ~budget
  | None -> None

let[@inline] sent p fate =
  match p.sc with Some o -> Scenario.Obs.sent o fate | None -> ()

let[@inline] crash_slots p =
  match p.sc with Some o -> Scenario.Obs.crash_slots o | None -> 0

let crash_victim p ~step ~victims =
  match p.sc with
  | Some o -> Scenario.Obs.crash_victim o ~step ~victims
  | None -> `Draw

let[@inline] schedule p (strategy : Strategy.t) ~enabled ~n ~step =
  match p.sc with
  | None -> strategy.next_schedule ~enabled ~n ~step
  | Some o -> Scenario.Obs.schedule o strategy ~enabled ~n ~step

let set_peek p peek x =
  match p.sc with Some o -> Scenario.Obs.set_peek o (peek x) | None -> ()
