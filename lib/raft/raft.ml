module R = Psharp.Runtime
module M = Psharp.Monitor

type bugs = {
  double_vote : bool;
  stale_leader_election : bool;
}

let no_bugs = { double_vote = false; stale_leader_election = false }
let bug_double_vote = { no_bugs with double_vote = true }
let bug_stale_leader_election = { no_bugs with stale_leader_election = true }

(* Log entries are (term, command); the log is kept newest-last with
   1-based indices. *)
type entry = { term : int; cmd : int }

type Psharp.Event.t +=
  | Bind_peers of (int * Psharp.Id.t) list
  | Request_vote of {
      term : int;
      candidate : int;
      candidate_id : Psharp.Id.t;
      last_log_index : int;
      last_log_term : int;
    }
  | Vote of { term : int; granted : bool }
  | Append_entries of {
      term : int;
      leader : int;
      log : entry list;
      leader_commit : int;
    }
  | Append_ok of { term : int; follower : int; match_len : int }
  | Client_cmd of int
  | Raft_tick
  | M_leader of { term : int; server : int }
  | M_committed of { index : int; cmd : int; server : int }

let election_name = "RaftElectionSafety"
let smsafety_name = "RaftStateMachineSafety"

let election_monitor () =
  let leaders : (int, int) Hashtbl.t = Hashtbl.create 8 in
  M.make ~name:election_name ~initial:"Watching"
    ~states:[ ("Watching", M.Neutral) ]
    (fun m e ->
      match e with
      | M_leader { term; server } -> begin
        match Hashtbl.find_opt leaders term with
        | None -> Hashtbl.replace leaders term server
        | Some other ->
          M.assert_ m (other = server)
            (Printf.sprintf "two leaders in term %d: servers %d and %d" term
               other server)
      end
      | _ -> ())

let smsafety_monitor () =
  let committed : (int, int) Hashtbl.t = Hashtbl.create 8 in
  M.make ~name:smsafety_name ~initial:"Watching"
    ~states:[ ("Watching", M.Neutral) ]
    (fun m e ->
      match e with
      | M_committed { index; cmd; server } -> begin
        match Hashtbl.find_opt committed index with
        | None -> Hashtbl.replace committed index cmd
        | Some other ->
          M.assert_ m (other = cmd)
            (Printf.sprintf
               "state-machine safety violated at index %d: %d vs %d (server %d)"
               index other cmd server)
      end
      | _ -> ())

let monitors () = [ election_monitor (); smsafety_monitor () ]

(* --- Server ------------------------------------------------------------- *)

type role = Follower | Candidate | Leader

type server = {
  sid : int;
  bugs : bugs;
  mutable peers : (int * Psharp.Id.t) list;  (** includes self *)
  mutable term : int;
  mutable voted_for : int option;
  mutable log : entry list;
  mutable commit_len : int;
  mutable role : role;
  mutable heard_from_leader : bool;
  mutable votes : int;
  mutable match_lens : (int * int) list;  (** follower -> replicated length *)
}

let last_log_info s =
  match List.rev s.log with
  | [] -> (0, 0)
  | e :: _ -> (List.length s.log, e.term)

let majority s = (List.length s.peers / 2) + 1

let others s = List.filter (fun (sid, _) -> sid <> s.sid) s.peers

let notify_committed ctx s ~from_len ~to_len =
  List.iteri
    (fun i entry ->
      let index = i + 1 in
      if index > from_len && index <= to_len then
        R.notify ctx smsafety_name
          (M_committed { index; cmd = entry.cmd; server = s.sid }))
    s.log

let become_follower s ~term =
  if term > s.term then begin
    s.term <- term;
    s.voted_for <- None
  end;
  s.role <- Follower;
  s.votes <- 0

let start_election ctx s =
  s.term <- s.term + 1;
  s.role <- Candidate;
  s.voted_for <- Some s.sid;
  s.votes <- 1;
  let last_log_index, last_log_term = last_log_info s in
  List.iter
    (fun (_, peer) ->
      R.send_faulty ctx peer
        (Request_vote
           {
             term = s.term;
             candidate = s.sid;
             candidate_id = R.self ctx;
             last_log_index;
             last_log_term;
           }))
    (others s)

let broadcast_append ctx s =
  List.iter
    (fun (_, peer) ->
      R.send_faulty ctx peer
        (Append_entries
           { term = s.term; leader = s.sid; log = s.log;
             leader_commit = s.commit_len }))
    (others s)

let become_leader ctx s =
  s.role <- Leader;
  s.match_lens <- [];
  R.notify ctx election_name (M_leader { term = s.term; server = s.sid });
  if R.logging ctx then
    R.log ctx (Printf.sprintf "server %d is leader of term %d" s.sid s.term);
  broadcast_append ctx s

(* Leader commit rule: an index is committed once a majority of servers
   store it and the entry at that index carries the current term
   (Raft §5.4.2); earlier entries commit transitively. *)
let advance_leader_commit ctx s =
  let n = List.length s.log in
  let replicated len =
    1
    + List.length (List.filter (fun (_, ml) -> ml >= len) s.match_lens)
  in
  let rec best len =
    if len <= s.commit_len then s.commit_len
    else if
      replicated len >= majority s
      && (List.nth s.log (len - 1)).term = s.term
    then len
    else best (len - 1)
  in
  let target = best n in
  if target > s.commit_len then begin
    let from_len = s.commit_len in
    s.commit_len <- target;
    notify_committed ctx s ~from_len ~to_len:target;
    broadcast_append ctx s
  end

let up_to_date s ~last_log_index ~last_log_term =
  let my_index, my_term = last_log_info s in
  last_log_term > my_term
  || (last_log_term = my_term && last_log_index >= my_index)

let handle_request_vote ctx s ~term ~candidate ~candidate_id ~last_log_index
    ~last_log_term =
  if term > s.term then become_follower s ~term;
  let fresh_vote =
    match s.voted_for with
    | None -> true
    | Some v -> v = candidate
  in
  let granted =
    term = s.term
    && (fresh_vote || s.bugs.double_vote)
    && (s.bugs.stale_leader_election
        || up_to_date s ~last_log_index ~last_log_term)
  in
  if granted then begin
    s.voted_for <- Some candidate;
    s.heard_from_leader <- true
  end;
  R.send_faulty ctx candidate_id (Vote { term; granted })

let handle_append ctx s ~term ~leader ~log ~leader_commit ~leader_id =
  if term > s.term then become_follower s ~term;
  if term = s.term then begin
    if s.role <> Leader then begin
      s.role <- Follower;
      s.heard_from_leader <- true;
      (* Full-log shipping: adopt the leader's log when it is at least as
         long as what we already replicated from this term's leader. *)
      if List.length log >= s.commit_len then begin
        s.log <- log;
        let new_commit = min leader_commit (List.length s.log) in
        if new_commit > s.commit_len then begin
          let from_len = s.commit_len in
          s.commit_len <- new_commit;
          notify_committed ctx s ~from_len ~to_len:new_commit
        end
      end;
      R.send_faulty ctx leader_id
        (Append_ok
           { term = s.term; follower = s.sid;
             match_len = List.length s.log })
    end
  end;
  ignore leader

let handle_tick ctx s =
  match s.role with
  | Leader -> broadcast_append ctx s
  | Follower ->
    if s.heard_from_leader then s.heard_from_leader <- false
    else start_election ctx s
  | Candidate -> start_election ctx s

let server_body ~bugs ~sid ctx =
  Psharp.Registry.register_machine ~machine:"RaftServer"
    ~kind:Psharp.Registry.Machine ~states:3 ~handlers:6;
  let s =
    {
      sid;
      bugs;
      peers = [];
      term = 0;
      voted_for = None;
      log = [];
      commit_len = 0;
      role = Follower;
      heard_from_leader = false;
      votes = 0;
      match_lens = [];
    }
  in
  ignore
    (Psharp.Timer.create ctx ~target:(R.self ctx)
       ~tick:(fun () -> Raft_tick)
       ~name:(Printf.sprintf "RaftTimer%d" sid)
       ());
  let peer_ids = ref [] in
  R.serve ctx (function
    | Bind_peers peers ->
      s.peers <- peers;
      peer_ids := List.map snd peers
    | Raft_tick -> if s.peers <> [] then handle_tick ctx s
    | Request_vote { term; candidate; candidate_id; last_log_index; last_log_term } ->
      handle_request_vote ctx s ~term ~candidate ~candidate_id
        ~last_log_index ~last_log_term
    | Vote { term; granted } ->
      if s.role = Candidate && term = s.term && granted then begin
        s.votes <- s.votes + 1;
        if s.votes >= majority s then become_leader ctx s
      end
    | Append_entries { term; leader; log; leader_commit } ->
      let leader_id =
        match List.assoc_opt leader s.peers with
        | Some id -> id
        | None -> R.self ctx
      in
      handle_append ctx s ~term ~leader ~log ~leader_commit ~leader_id
    | Append_ok { term; follower; match_len } ->
      if s.role = Leader && term = s.term then begin
        let current =
          Option.value (List.assoc_opt follower s.match_lens) ~default:0
        in
        if match_len > current then begin
          s.match_lens <-
            (follower, match_len) :: List.remove_assoc follower s.match_lens;
          advance_leader_commit ctx s
        end
      end
    | Client_cmd cmd ->
      if s.role = Leader then begin
        s.log <- s.log @ [ { term = s.term; cmd } ];
        broadcast_append ctx s;
        advance_leader_commit ctx s
      end
    | Psharp.Event.Halt_event -> R.halt ctx
    | _ -> ())

(* --- Harness ------------------------------------------------------------ *)

let test ?(bugs = no_bugs) ?(n_servers = 3) ?(n_commands = 2) () ctx =
  Psharp.Registry.register_machine ~machine:"RaftHarness"
    ~kind:Psharp.Registry.Machine ~states:1 ~handlers:1;
  let servers =
    List.init n_servers (fun sid ->
        ( sid,
          R.create ctx
            ~name:(Printf.sprintf "Raft%d" sid)
            (server_body ~bugs ~sid) ))
  in
  List.iter (fun (_, id) -> R.send ctx id (Bind_peers servers)) servers;
  (* The client broadcasts each command at a nondeterministic time; only
     the current leader appends it. *)
  let timer =
    Psharp.Timer.create ctx ~target:(R.self ctx)
      ~tick:(fun () -> Raft_tick)
      ~name:"ClientTimer" ()
  in
  let rec drive sent =
    if sent >= n_commands then R.send ctx timer Psharp.Timer.Timer_stop
    else begin
      match R.receive ctx with
      | Raft_tick ->
        if R.nondet ctx then begin
          List.iter
            (fun (_, id) -> R.send ctx id (Client_cmd (1000 + sent)))
            servers;
          drive (sent + 1)
        end
        else drive sent
      | _ -> drive sent
    end
  in
  drive 0
