type choice =
  | Schedule of int
  | Bool of bool
  | Int of int

(* Packed representation: one unboxed int per choice, [(v lsl 2) lor tag]
   with tag 0 = [Schedule v], 1 = [Bool] (v = 0 or 1), 2 = [Int v]. A
   value that does not survive the two-bit shift (|v| >= 2^60) is stored
   as the escape code 3 and kept, boxed, at the same index of [wide]. No
   real execution records such a value, so [wide] is [[||]] in practice;
   when it is not, it has the length of [codes] and holds [filler] at
   every index that is not an escape. Both invariants keep the encoding
   canonical, so structural equality of traces is equality of their
   choice sequences. *)
type t = { codes : int array; wide : choice array }

let tag_schedule = 0
let tag_bool = 1
let tag_int = 2
let escape = 3
let filler = Bool false

(* Decoding a small value returns a preallocated choice, so readers that
   pattern-match a decoded choice allocate nothing. *)
let interned = 256
let schedules = Array.init interned (fun i -> Schedule i)
let ints = Array.init interned (fun i -> Int i)
let bool_true = Bool true
let bool_false = Bool false

let[@inline] fits v = (v lsl 2) asr 2 = v
let[@inline] pack tag v = (v lsl 2) lor tag

let code_of = function
  | Schedule v when fits v -> pack tag_schedule v
  | Bool b -> pack tag_bool (Bool.to_int b)
  | Int v when fits v -> pack tag_int v
  | Schedule _ | Int _ -> escape

let[@inline] decode wide i code =
  let v = code asr 2 in
  match code land 3 with
  | 0 ->
    if v >= 0 && v < interned then Array.unsafe_get schedules v
    else Schedule v
  | 1 -> if v = 0 then bool_false else bool_true
  | 2 -> if v >= 0 && v < interned then Array.unsafe_get ints v else Int v
  | _ -> wide.(i)

(* The smart constructor for traces cut out of wider ones: drop [wide]
   once no escape is left in [codes]. *)
let make codes wide =
  if Array.length wide > 0 && not (Array.exists (fun c -> c = escape) codes)
  then { codes; wide = [||] }
  else { codes; wide }

let empty = { codes = [||]; wide = [||] }

let of_list l =
  let choices = Array.of_list l in
  let codes = Array.map code_of choices in
  make codes
    (Array.mapi (fun i c -> if codes.(i) = escape then c else filler) choices)

let length t = Array.length t.codes
let get t i = decode t.wide i t.codes.(i)
let to_list t = List.init (length t) (get t)
let equal a b = a = b

let fold f acc t =
  let acc = ref acc in
  for i = 0 to length t - 1 do
    acc := f !acc (decode t.wide i (Array.unsafe_get t.codes i))
  done;
  !acc

(* FNV-1a over the choices as (kind, value) pairs, kind 1 = [Schedule],
   2 = [Bool] (value 0 or 1), 3 = [Int]: the kind keeps [Schedule 1] and
   [Int 1] apart. A packed code's tag is its kind minus one, so the loop
   hashes codes without decoding them, and [h] stays an unboxed local. *)
let fnv_prime = 0x100000001b3L
let[@inline] mix h x = Int64.mul (Int64.logxor h (Int64.of_int x)) fnv_prime

let hash t =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to length t - 1 do
    let code = Array.unsafe_get t.codes i in
    if code land 3 <> escape then
      h := mix (mix !h ((code land 3) + 1)) (code asr 2)
    else
      h :=
        (match t.wide.(i) with
         | Schedule v -> mix (mix !h 1) v
         | Bool b -> mix (mix !h 2) (Bool.to_int b)
         | Int v -> mix (mix !h 3) v)
  done;
  !h

let wide_of t =
  if Array.length t.wide > 0 then t.wide else Array.make (length t) filler

let sub t pos len =
  make (Array.sub t.codes pos len)
    (if Array.length t.wide > 0 then Array.sub t.wide pos len else [||])

let append a b =
  {
    codes = Array.append a.codes b.codes;
    wide =
      (if Array.length a.wide = 0 && Array.length b.wide = 0 then [||]
       else Array.append (wide_of a) (wide_of b));
  }

let map_range t ~pos ~len f =
  if pos < 0 || len < 0 || pos > length t - len then
    invalid_arg "Trace.map_range";
  let codes = Array.copy t.codes in
  let wide =
    ref (if Array.length t.wide > 0 then Array.copy t.wide else [||])
  in
  for i = pos to pos + len - 1 do
    let old = get t i in
    let c = f old in
    (* a choice [f] hands back unchanged keeps its code *)
    if c != old then begin
      let code = code_of c in
      codes.(i) <- code;
      if code = escape && Array.length !wide = 0 then
        wide := Array.make (Array.length codes) filler;
      if Array.length !wide > 0 then
        !wide.(i) <- (if code = escape then c else filler)
    end
  done;
  make codes !wide

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

  (* Recording a choice stores one int into [codes]: no allocation, and no
     write barrier even once the buffer lives in the major heap. The
     buffer outlives the execution: [finish] copies the used prefix out
     and hands the buffer back to its domain's [spare] slot, where the
     next [create] in that domain picks it up, so after the first few
     executions nothing is regrown. A builder takes the spare for itself
     (leaving [[||]] behind), so two live builders in one domain never
     share a buffer; an execution that dies before [finish] just loses
     its buffer to the GC. Escaped values are rare and listed apart. *)
  type t = {
    mutable codes : int array;
    mutable len : int;
    mutable wide : (int * choice) list;
  }

  let spare : int array Domain.DLS.key = Domain.DLS.new_key (fun () -> [||])

  let create () =
    let codes = Domain.DLS.get spare in
    Domain.DLS.set spare [||];
    { codes; len = 0; wide = [] }

  let grow t =
    let bigger = Array.make (max 64 (2 * t.len)) 0 in
    Array.blit t.codes 0 bigger 0 t.len;
    t.codes <- bigger

  let[@inline] push t code =
    if t.len = Array.length t.codes then grow t;
    Array.unsafe_set t.codes t.len code;
    t.len <- t.len + 1

  let add_wide t c =
    t.wide <- (t.len, c) :: t.wide;
    push t escape

  let add_schedule t v =
    if fits v then push t (pack tag_schedule v) else add_wide t (Schedule v)

  let add_bool t b = push t (pack tag_bool (Bool.to_int b))

  let add_int t v =
    if fits v then push t (pack tag_int v) else add_wide t (Int v)

  let length t = t.len

  let finish t : trace =
    (* [Array.sub] copies a prefix of up to 256 words (the minor heap's
       largest block) with one memcpy, but initialises a longer one, which
       lands in the major heap, with one [caml_initialize] per element;
       there a fresh zeroed [int array] written with plain stores is
       faster. *)
    let codes =
      if t.len <= 256 then Array.sub t.codes 0 t.len
      else begin
        let c = Array.make t.len 0 in
        for i = 0 to t.len - 1 do
          Array.unsafe_set c i (Array.unsafe_get t.codes i)
        done;
        c
      end
    in
    let wide =
      match t.wide with
      | [] -> [||]
      | escaped ->
        let w = Array.make t.len filler in
        List.iter (fun (i, c) -> w.(i) <- c) escaped;
        w
    in
    if Array.length t.codes > Array.length (Domain.DLS.get spare) then
      Domain.DLS.set spare t.codes;
    t.codes <- [||];
    t.len <- 0;
    t.wide <- [];
    { codes; wide }
end
