type choice =
  | Schedule of int
  | Bool of bool
  | Int of int

type t = choice array

let empty = [||]
let of_list = Array.of_list
let to_list = Array.to_list
let length = Array.length
let equal a b = a = b
let fold = Array.fold_left

let choice_to_string = function
  | Schedule i -> Printf.sprintf "s:%d" i
  | Bool b -> Printf.sprintf "b:%d" (if b then 1 else 0)
  | Int i -> Printf.sprintf "i:%d" i

let choice_of_string s =
  match String.split_on_char ':' s with
  | [ "s"; i ] -> Schedule (int_of_string i)
  | [ "b"; "0" ] -> Bool false
  | [ "b"; "1" ] -> Bool true
  | [ "i"; i ] -> Int (int_of_string i)
  | _ -> failwith (Printf.sprintf "Trace.of_string: malformed choice %S" s)

let to_string t =
  String.concat "\n" (List.map choice_to_string (to_list t))

let of_string s =
  (* Strict line-oriented parse: one choice per line, with at most one
     trailing newline (the [save] format). Blank lines (duplicate
     separators) and non-canonical spellings ("i:0x10", "s:01", trailing
     whitespace) are rejected rather than silently skipped — a corrupted
     trace must fail loudly, not replay a different schedule. *)
  let lines = String.split_on_char '\n' s in
  let lines =
    match List.rev lines with
    | "" :: rest -> List.rev rest
    | _ -> lines
  in
  let parse i line =
    if String.trim line = "" then
      failwith (Printf.sprintf "Trace.of_string: blank line %d" (i + 1))
    else begin
      let c = choice_of_string line in
      if choice_to_string c <> line then
        failwith
          (Printf.sprintf "Trace.of_string: trailing garbage on line %d: %S"
             (i + 1) line);
      c
    end
  in
  of_list (List.mapi parse lines)

let save ~path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t); output_char oc '\n')

let load ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))

module Builder = struct
  type trace = t

  (* Growable array rather than a reversed list: no cons cell per choice,
     and [finish] is a blit instead of a reverse — the builder sits on the
     every-step hot path. Small choices are interned: [add_schedule],
     [add_bool] and [add_int] store a preallocated immutable value, so a
     step allocates nothing, and no young block is ever written into the
     (typically major-heap) buffer, which is what would get it promoted. *)
  type t = { mutable buf : choice array; mutable len : int }

  let interned = 256
  let schedules = Array.init interned (fun i -> Schedule i)
  let ints = Array.init interned (fun i -> Int i)
  let bool_true = Bool true
  let bool_false = Bool false

  let create () = { buf = [||]; len = 0 }

  let add t c =
    if t.len = Array.length t.buf then begin
      let bigger = Array.make (max 64 (2 * t.len)) c in
      Array.blit t.buf 0 bigger 0 t.len;
      t.buf <- bigger
    end;
    Array.unsafe_set t.buf t.len c;
    t.len <- t.len + 1

  let add_schedule t i =
    add t
      (if i >= 0 && i < interned then Array.unsafe_get schedules i
       else Schedule i)

  let add_bool t b = add t (if b then bool_true else bool_false)

  let add_int t i =
    add t
      (if i >= 0 && i < interned then Array.unsafe_get ints i else Int i)

  let length t = t.len

  let finish t : trace = Array.sub t.buf 0 t.len
end
