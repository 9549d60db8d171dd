type t = {
  name : string;
  next_schedule : enabled:int array -> n:int -> step:int -> int;
  next_bool : step:int -> bool;
  next_int : bound:int -> step:int -> int;
}

type factory = {
  factory_name : string;
  parallel_safe : bool;
  fresh : iteration:int -> t option;
  feedback : (trace:Trace.t -> novelty:Coverage.novelty -> unit) option;
}

let stateless ~name make =
  {
    factory_name = name;
    parallel_safe = true;
    fresh = (fun ~iteration -> Some (make ~iteration));
    feedback = None;
  }

(* Helpers over the enabled prefix [enabled.(0 .. n-1)]. *)

let enabled_mem enabled n m =
  let rec go i = i < n && (Array.unsafe_get enabled i = m || go (i + 1)) in
  go 0
