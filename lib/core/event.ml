type t = ..

type t +=
  | Halt_event
  | Unit_event

(* Extension-constructor names are fully qualified ("Psharp.Timer.Timer_tick");
   handler tables use the bare constructor name, so strip the module path. *)
let strip full =
  match String.rindex_opt full '.' with
  | None -> full
  | Some i -> String.sub full (i + 1) (String.length full - i - 1)

(* [name] runs on every dispatch, coalescing test, coverage triple and
   scenario observation, so the stripped name is memoized per
   extension-constructor id: a direct-mapped front array answers a repeat
   lookup with two loads (measured at about two thirds of the cost of a
   hashtable probe), backed by a table of every name seen so constructors
   whose ids collide in the front array still allocate nothing. One memo
   per domain: no lock, and every domain computes the same string for the
   same constructor. *)
let front = 256

type memo = {
  ids : int array;
  strs : string array;
  all : (int, string) Hashtbl.t;
}

let memo : memo Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        ids = Array.make front (-1);
        strs = Array.make front "";
        all = Hashtbl.create 64;
      })

let name (e : t) =
  let c = Obj.Extension_constructor.of_val e in
  let id = Obj.Extension_constructor.id c in
  let m = Domain.DLS.get memo in
  let j = id land (front - 1) in
  if Array.unsafe_get m.ids j = id then Array.unsafe_get m.strs j
  else begin
    let s =
      match Hashtbl.find m.all id with
      | s -> s
      | exception Not_found ->
        let s = strip (Obj.Extension_constructor.name c) in
        Hashtbl.add m.all id s;
        s
    in
    m.ids.(j) <- id;
    m.strs.(j) <- s;
    s
  end

let constructor_id (e : t) =
  Obj.Extension_constructor.id (Obj.Extension_constructor.of_val e)

(* The block the runtime allocates once per declared constructor: a
   constant constructor's value is that block itself (tagged
   [Obj.object_tag]), and a value built by a constructor with arguments
   holds it in field 0. Every event is a block of at least one field. *)
type constructor = Obj.t

let constructor (e : t) =
  let r = Obj.repr e in
  if Obj.tag r = Obj.object_tag then r else Obj.field r 0

(* A constant event's field 0 is its name string, never a constructor
   block, so testing an event needs no tag read. *)
let[@inline] has_constructor c (e : t) =
  let r = Obj.repr e in
  r == c || Obj.field r 0 == c

(* Registration happens lazily from machine bodies, which may execute
   concurrently across domains; publish the list with a CAS loop so no
   registration is lost. Reads are plain: a momentarily stale list only
   affects how an event renders. *)
let printers : (t -> string option) list Atomic.t = Atomic.make []

let register_printer f =
  let rec loop () =
    let current = Atomic.get printers in
    if not (Atomic.compare_and_set printers current (f :: current)) then
      loop ()
  in
  loop ()

let to_string e =
  let rec try_printers = function
    | [] -> name e
    | f :: rest -> (match f e with Some s -> s | None -> try_printers rest)
  in
  try_printers (Atomic.get printers)
