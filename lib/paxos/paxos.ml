module R = Psharp.Runtime
module M = Psharp.Monitor

type bugs = {
  forget_promise : bool;
  choose_own_value : bool;
}

let no_bugs = { forget_promise = false; choose_own_value = false }
let bug_forget_promise = { no_bugs with forget_promise = true }
let bug_choose_own_value = { no_bugs with choose_own_value = true }

(* Ballots are (round, proposer id) ordered lexicographically, so ballots
   of distinct proposers never tie. *)
type ballot = int * int

let compare_ballot (a : ballot) (b : ballot) = compare a b

type Psharp.Event.t +=
  | Prepare of { ballot : ballot; proposer : Psharp.Id.t }
  | Promise of {
      acceptor : int;
      ballot : ballot;
      accepted : (ballot * int) option;
          (** highest proposal this acceptor has accepted, if any *)
    }
  | Accept of { ballot : ballot; value : int; proposer : Psharp.Id.t }
  | Accepted of { acceptor : int; ballot : ballot }
  | Rejected of { ballot : ballot }
  | M_chosen of { value : int; ballot : ballot }
  | Proposer_done

let monitor_name = "PaxosAgreement"

let agreement_monitor () =
  let chosen = ref None in
  M.make ~name:monitor_name ~initial:"Watching"
    ~states:[ ("Watching", M.Neutral) ]
    (fun m e ->
      match e with
      | M_chosen { value; ballot = _ } -> begin
        match !chosen with
        | None -> chosen := Some value
        | Some v ->
          M.assert_ m (v = value)
            (Printf.sprintf "agreement violated: %d chosen after %d" value v)
      end
      | _ -> ())

let monitors () = [ agreement_monitor () ]

(* --- Acceptor ----------------------------------------------------------- *)

let acceptor ~bugs ~aid ctx =
  Psharp.Registry.register_machine ~machine:"PaxosAcceptor"
    ~kind:Psharp.Registry.Machine ~states:1 ~handlers:2;
  let promised : ballot option ref = ref None in
  let accepted : (ballot * int) option ref = ref None in
  R.serve ctx (function
    | Prepare { ballot; proposer } ->
      let higher =
        match !promised with
        | None -> true
        | Some p -> compare_ballot ballot p > 0
      in
      if higher then begin
        promised := Some ballot;
        R.send_faulty ctx proposer
          (Promise { acceptor = aid; ballot; accepted = !accepted })
      end
      else R.send_faulty ctx proposer (Rejected { ballot })
    | Accept { ballot; value; proposer } ->
      let ok =
        if bugs.forget_promise then
          (* Bug: honour only previously accepted ballots and ignore the
             promise — a higher prepare no longer blocks this accept. *)
          match !accepted with
          | None -> true
          | Some (b, _) -> compare_ballot ballot b >= 0
        else
          match !promised with
          | None -> true
          | Some p -> compare_ballot ballot p >= 0
      in
      if ok then begin
        accepted := Some (ballot, value);
        R.send_faulty ctx proposer (Accepted { acceptor = aid; ballot })
      end
      else R.send_faulty ctx proposer (Rejected { ballot })
    | Psharp.Event.Halt_event -> R.halt ctx
    | _ -> ())

(* --- Proposer ----------------------------------------------------------- *)

let proposer ~bugs ~pid ~acceptors ~my_value ~max_ballots ~report_to ctx =
  Psharp.Registry.register_machine ~machine:"PaxosProposer"
    ~kind:Psharp.Registry.Machine ~states:2 ~handlers:3;
  let n = List.length acceptors in
  let majority = (n / 2) + 1 in
  let rec try_ballot round =
    if round > max_ballots then ()
    else begin
      let ballot = (round, pid) in
      List.iter
        (fun a -> R.send_faulty ctx a (Prepare { ballot; proposer = R.self ctx }))
        acceptors;
      (* Phase 1: gather promises (or give up on enough rejections). *)
      let promises = ref [] in
      let rejections = ref 0 in
      let mine = function
        | Promise { ballot = b; _ } | Rejected { ballot = b } ->
          compare_ballot b ballot = 0
        | Accepted { ballot = b; _ } -> compare_ballot b ballot = 0
        | _ -> false
      in
      let rec phase1 () =
        if List.length !promises >= majority then `Proceed
        else if !rejections > n - majority then `Retry
        else begin
          match R.receive_where ctx mine with
          | Promise { accepted; _ } ->
            promises := accepted :: !promises;
            phase1 ()
          | Rejected _ ->
            incr rejections;
            phase1 ()
          | _ -> phase1 ()
        end
      in
      match phase1 () with
      | `Retry -> try_ballot (round + 1)
      | `Proceed ->
        (* Choose the value: the accepted value of the highest ballot among
           the promises, or this proposer's own value. The buggy proposer
           always pushes its own value. *)
        let value =
          if bugs.choose_own_value then my_value
          else
            let best =
              List.fold_left
                (fun acc reported ->
                  match (acc, reported) with
                  | None, r -> r
                  | Some (b1, _), Some (b2, v2) when compare_ballot b2 b1 > 0 ->
                    Some (b2, v2)
                  | acc, _ -> acc)
                None !promises
            in
            match best with
            | Some (_, v) -> v
            | None -> my_value
        in
        List.iter
          (fun a ->
            R.send_faulty ctx a (Accept { ballot; value; proposer = R.self ctx }))
          acceptors;
        (* Phase 2: gather accepts. *)
        let accepts = ref 0 in
        let rejections = ref 0 in
        let rec phase2 () =
          if !accepts >= majority then begin
            R.notify ctx monitor_name (M_chosen { value; ballot });
            if R.logging ctx then
              R.log ctx
                (Printf.sprintf "chose %d at ballot (%d,%d)" value round pid)
          end
          else if !rejections > n - majority then try_ballot (round + 1)
          else begin
            match R.receive_where ctx mine with
            | Accepted _ ->
              incr accepts;
              phase2 ()
            | Rejected _ ->
              incr rejections;
              phase2 ()
            | _ -> phase2 ()
          end
        in
        phase2 ()
    end
  in
  try_ballot 1;
  R.send ctx report_to Proposer_done;
  R.halt ctx

(* --- Harness ------------------------------------------------------------ *)

let test ?(bugs = no_bugs) ?(n_acceptors = 3) ?(n_proposers = 2)
    ?(max_ballots = 3) () ctx =
  Psharp.Registry.register_machine ~machine:"PaxosHarness"
    ~kind:Psharp.Registry.Machine ~states:1 ~handlers:1;
  let acceptors =
    List.init n_acceptors (fun aid ->
        R.create ctx ~name:(Printf.sprintf "Acceptor%d" aid)
          (acceptor ~bugs ~aid))
  in
  for pid = 1 to n_proposers do
    ignore
      (R.create ctx
         ~name:(Printf.sprintf "Proposer%d" pid)
         (proposer ~bugs ~pid ~acceptors ~my_value:(100 + pid) ~max_ballots
            ~report_to:(R.self ctx)))
  done;
  (* Wait for every proposer to finish, then release the acceptors so the
     execution terminates cleanly. *)
  for _ = 1 to n_proposers do
    ignore
      (R.receive_where ctx (function Proposer_done -> true | _ -> false))
  done;
  List.iter (fun a -> R.send ctx a Psharp.Event.Halt_event) acceptors
