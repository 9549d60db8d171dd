(* The SplitMix64 state lives unboxed in 8 bytes: a [mutable state :
   int64] field would box a fresh Int64 on every draw. The bytes are only
   ever read and written by the two primitives below, so their byte order
   is irrelevant. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed =
  let t = Bytes.create 8 in
  set_state t 0 seed;
  t

let copy = Bytes.copy

(* SplitMix64 output function: see Steele, Lea & Flood, OOPSLA 2014.
   Inlined so the draws below keep the intermediate int64 unboxed. *)
let[@inline] next_int64 t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = next_int64 t in
  create ~seed

(* Keep 62 bits so the result fits OCaml's 63-bit native int as a
   non-negative value. *)
let mask62 = 0x3FFF_FFFF_FFFF_FFFFL

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let nonneg = Int64.to_int (Int64.logand (next_int64 t) mask62) in
  nonneg mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t bound =
  let nonneg = Int64.to_float (Int64.logand (next_int64 t) mask62) in
  bound *. (nonneg /. Int64.to_float mask62)

let pick t xs =
  match xs with
  | [] -> invalid_arg "Prng.pick: empty list"
  | _ ->
    (* One traversal (to an array) instead of List.length + List.nth; the
       draw is unchanged (bound = length), so PRNG streams are stable. *)
    let arr = Array.of_list xs in
    arr.(int t (Array.length arr))

let shuffle t xs =
  for i = Array.length xs - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- tmp
  done
