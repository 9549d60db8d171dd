(* A ring buffer of three parallel arrays: the events, the creation index
   of each event's sender (-1 when unknown) so the coverage layer can
   attribute deliveries, and each event's happens-before message stamp
   (-1 when hb tracking is off) so the dequeue can merge the sender's
   vector clock — neither tag changes the event type. A push stores into
   the arrays and a dequeue shifts the entries behind the removed one, so
   neither allocates once the buffer has grown to the inbox's high-water
   mark. The capacity is zero or a power of two. *)

type t = {
  mutable events : Event.t array;
  mutable senders : int array;
  mutable stamps : int array;
  mutable head : int;  (* physical slot of the oldest entry *)
  mutable len : int;
}

(* What a vacated slot holds, so a dequeued event is not kept alive. *)
let vacant = Event.Unit_event

let create () = { events = [||]; senders = [||]; stamps = [||]; head = 0; len = 0 }

let[@inline] slot t i = (t.head + i) land (Array.length t.events - 1)

let grow t =
  let cap = max 8 (2 * Array.length t.events) in
  let events = Array.make cap vacant in
  let senders = Array.make cap (-1) in
  let stamps = Array.make cap (-1) in
  for i = 0 to t.len - 1 do
    let j = slot t i in
    events.(i) <- t.events.(j);
    senders.(i) <- t.senders.(j);
    stamps.(i) <- t.stamps.(j)
  done;
  t.events <- events;
  t.senders <- senders;
  t.stamps <- stamps;
  t.head <- 0

let push t ~sender ~stamp e =
  if t.len = Array.length t.events then grow t;
  let j = slot t t.len in
  Array.unsafe_set t.events j e;
  Array.unsafe_set t.senders j sender;
  Array.unsafe_set t.stamps j stamp;
  t.len <- t.len + 1

let is_empty t = t.len = 0

let length t = t.len

let find t pred =
  let rec go i =
    if i = t.len then -1
    else if pred (Array.unsafe_get t.events (slot t i)) then i
    else go (i + 1)
  in
  go 0

let check t i name =
  if i < 0 || i >= t.len then invalid_arg ("Inbox." ^ name ^ ": no such entry")

let sender_at t i = check t i "sender_at"; t.senders.(slot t i)
let stamp_at t i = check t i "stamp_at"; t.stamps.(slot t i)

let take t i =
  check t i "take";
  let mask = Array.length t.events - 1 in
  let e = t.events.(slot t i) in
  if i = 0 then begin
    t.events.(t.head) <- vacant;
    t.head <- (t.head + 1) land mask
  end
  else begin
    (* close the gap: every later entry moves one slot towards the head *)
    for k = i to t.len - 2 do
      let dst = slot t k and src = slot t (k + 1) in
      t.events.(dst) <- t.events.(src);
      t.senders.(dst) <- t.senders.(src);
      t.stamps.(dst) <- t.stamps.(src)
    done;
    t.events.(slot t (t.len - 1)) <- vacant
  end;
  t.len <- t.len - 1;
  e

let pop_first t pred =
  match find t pred with -1 -> None | i -> Some (take t i)

let peek_first t pred =
  match find t pred with -1 -> None | i -> Some t.events.(slot t i)

let exists t pred = find t pred >= 0

let exists_name t name =
  let rec go i =
    i < t.len
    && (String.equal (Event.name (Array.unsafe_get t.events (slot t i))) name
       || go (i + 1))
  in
  go 0

let to_list t = List.init t.len (fun i -> t.events.(slot t i))

let clear t =
  for i = 0 to t.len - 1 do
    t.events.(slot t i) <- vacant
  done;
  t.head <- 0;
  t.len <- 0
