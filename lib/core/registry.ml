type kind = Machine | Monitor

type machine_stats = {
  machine : string;
  kind : kind;
  states : int;
  handlers : int;
}

let registered : (string, machine_stats) Hashtbl.t = Hashtbl.create 32
let order : string list ref = ref []

module Edge_set = Set.Make (struct
  type t = string * string

  let compare = compare
end)

let edges : (string, Edge_set.t) Hashtbl.t = Hashtbl.create 32

(* The registry is global, and executions may run concurrently across
   domains (Worker_pool); every write to the shared tables goes through
   this lock. *)
let mu = Mutex.create ()

(* Per-domain seen caches keep [record_transition] and [register_machine]
   off the global mutex on the hot path: both are called on every machine
   start / state transition of every execution, yet after the first few
   executions they almost never contribute a new edge or machine. A
   domain-local hashtable filters the repeats without any locking; only
   genuinely unseen keys take the mutex. [reset] bumps the generation to
   invalidate every domain's cache. *)
let generation = Atomic.make 0

type local_cache = {
  mutable gen : int;
  seen_machines : (string, unit) Hashtbl.t;
  seen_edges : (string * string * string, unit) Hashtbl.t;
}

let cache_key =
  Domain.DLS.new_key (fun () ->
      {
        gen = Atomic.get generation;
        seen_machines = Hashtbl.create 32;
        seen_edges = Hashtbl.create 256;
      })

let local_cache () =
  let c = Domain.DLS.get cache_key in
  let g = Atomic.get generation in
  if c.gen <> g then begin
    Hashtbl.reset c.seen_machines;
    Hashtbl.reset c.seen_edges;
    c.gen <- g
  end;
  c

let register_machine ~machine ~kind ~states ~handlers =
  let c = local_cache () in
  if not (Hashtbl.mem c.seen_machines machine) then begin
    Hashtbl.replace c.seen_machines machine ();
    Mutex.protect mu (fun () ->
        if not (Hashtbl.mem registered machine) then begin
          Hashtbl.replace registered machine { machine; kind; states; handlers };
          order := machine :: !order
        end)
  end

let record_transition ~machine ~from_ ~to_ =
  let c = local_cache () in
  let key = (machine, from_, to_) in
  if not (Hashtbl.mem c.seen_edges key) then begin
    Hashtbl.replace c.seen_edges key ();
    Mutex.protect mu (fun () ->
        let current =
          Option.value (Hashtbl.find_opt edges machine) ~default:Edge_set.empty
        in
        Hashtbl.replace edges machine (Edge_set.add (from_, to_) current))
  end

let machines () =
  Mutex.protect mu (fun () ->
      List.rev_map (fun name -> Hashtbl.find registered name) !order)

let transitions ~machine =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt edges machine with
      | Some s -> Edge_set.cardinal s
      | None -> 0)

let reset () =
  Mutex.protect mu (fun () ->
      Hashtbl.reset registered;
      Hashtbl.reset edges;
      order := []);
  Atomic.incr generation
