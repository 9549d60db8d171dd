type kind = Drop | Duplicate | Delay | Crash

type spec = {
  drop : bool;
  duplicate : bool;
  delay : bool;
  crash : bool;
  budget : int;
  max_delay : int;
}

let none =
  {
    drop = false;
    duplicate = false;
    delay = false;
    crash = false;
    budget = 0;
    max_delay = 3;
  }

let message_faults s = s.budget > 0 && (s.drop || s.duplicate || s.delay)
let enabled s = message_faults s || (s.budget > 0 && s.crash)

let kind_to_string = function
  | Drop -> "drop"
  | Duplicate -> "dup"
  | Delay -> "delay"
  | Crash -> "crash"

let kind_of_string = function
  | "drop" -> Some Drop
  | "dup" | "duplicate" -> Some Duplicate
  | "delay" -> Some Delay
  | "crash" -> Some Crash
  | _ -> None

let make ?(budget = 1) ?(max_delay = 3) kinds =
  if budget < 0 then invalid_arg "Fault.make: budget must be non-negative";
  if max_delay <= 0 then invalid_arg "Fault.make: max_delay must be positive";
  {
    drop = List.mem Drop kinds;
    duplicate = List.mem Duplicate kinds;
    delay = List.mem Delay kinds;
    crash = List.mem Crash kinds;
    budget;
    max_delay;
  }

let kinds s =
  (if s.drop then [ Drop ] else [])
  @ (if s.duplicate then [ Duplicate ] else [])
  @ (if s.delay then [ Delay ] else [])
  @ if s.crash then [ Crash ] else []

(* Accepts what {!to_string} produces — ["none"], or a comma-separated
   kind list with an optional ["(budget=N)"] suffix — plus plain kind
   lists with no suffix (budget 1), so CLI flags and serialized specs
   share one strict grammar. *)
let parse str =
  let str = String.trim str in
  if str = "none" then Ok none
  else
    let kinds_str, budget =
      match String.index_opt str '(' with
      | None -> (Ok str, Ok 1)
      | Some i ->
        let head = String.sub str 0 i in
        let tail = String.sub str i (String.length str - i) in
        let budget =
          let l = String.length tail in
          if l > 9 && String.sub tail 0 8 = "(budget=" && tail.[l - 1] = ')'
          then (
            match int_of_string_opt (String.sub tail 8 (l - 9)) with
            | Some n when n >= 0 -> Ok n
            | _ ->
              Error
                (Printf.sprintf
                   "malformed fault budget %S (expected a non-negative \
                    integer)" tail))
          else
            Error
              (Printf.sprintf
                 "malformed fault spec suffix %S (expected (budget=N))" tail)
        in
        (Ok head, budget)
    in
    match (kinds_str, budget) with
    | Error e, _ | _, Error e -> Error e
    | Ok kinds_str, Ok budget ->
      let parts =
        String.split_on_char ',' kinds_str
        |> List.map String.trim
        |> List.filter (fun s -> s <> "")
      in
      if parts = [] then
        Error "no fault kinds given (expected e.g. drop,crash)"
      else
        match List.find_opt (fun p -> kind_of_string p = None) parts with
        | Some p ->
          Error
            (Printf.sprintf
               "unknown fault kind %S (expected drop, dup, delay or crash)" p)
        | None -> Ok (make ~budget (List.filter_map kind_of_string parts))

let to_string s =
  match kinds s with
  | [] -> "none"
  | ks ->
    Printf.sprintf "%s(budget=%d)"
      (String.concat "," (List.map kind_to_string ks))
      s.budget
