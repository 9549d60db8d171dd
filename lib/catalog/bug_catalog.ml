type case_study =
  | Cs_vnext
  | Cs_migrating_table
  | Cs_fabric
  | Cs_example
  | Cs_sample
  | Cs_shardkv

let case_study_to_string = function
  | Cs_vnext -> "1"
  | Cs_migrating_table -> "2"
  | Cs_fabric -> "3"
  | Cs_example -> "ex"
  | Cs_sample -> "s"
  | Cs_shardkv -> "kv"

type lin_support = {
  lin_default : bool;
  lin_harness : history_out:string option -> Psharp.Runtime.ctx -> unit;
  lin_fixed : history_out:string option -> Psharp.Runtime.ctx -> unit;
}

type entry = {
  name : string;
  case_study : case_study;
  in_table2 : bool;
  needs_custom_case : bool;
  kind : [ `Safety | `Liveness ];
  harness : Psharp.Runtime.ctx -> unit;
  custom_harness : (Psharp.Runtime.ctx -> unit) option;
  fixed_harness : Psharp.Runtime.ctx -> unit;
  monitors : unit -> Psharp.Monitor.t list;
  max_steps : int;
  faults : Psharp.Fault.spec;
      (* faults the hunt must inject for the bug to be reachable;
         Fault.none for every schedule-only bug *)
  clock : Psharp.Clock.config option;
      (* virtual-time config the hunt must run with; None for every bug
         reachable without simulated time *)
  lin : lin_support option;
      (* generic-linearizability-oracle variants of the harness, for
         workloads that record client histories; None elsewhere *)
}

let no_monitors () = []

(* Chaintable under the generic checker: same harness, oracle [`Lin] —
   per-operation divergence asserts off, the recorded history judged by
   {!Chaintable.Lin_oracle} at workload end. Draw-identical to the legacy
   harness, so `--check-lin on` hunts the same schedule space. *)
let chaintable_lin ?(bugs = Chaintable.Bug_flags.none) ?workloads () =
  {
    lin_default = false;
    lin_harness =
      (fun ~history_out ->
        Chaintable.Harness.test ~bugs ?workloads ~oracle:`Lin ?history_out ());
    lin_fixed =
      (fun ~history_out ->
        Chaintable.Harness.test ?workloads ~oracle:`Lin ?history_out ());
  }

let vnext_entry =
  {
    name = "ExtentNodeLivenessViolation";
    case_study = Cs_vnext;
    in_table2 = true;
    needs_custom_case = false;
    kind = `Liveness;
    harness =
      Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.liveness_bug
        ~scenario:Vnext.Testing_driver.Fail_and_repair ();
    custom_harness = None;
    fixed_harness =
      Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.none
        ~scenario:Vnext.Testing_driver.Fail_and_repair ();
    monitors = (fun () -> Vnext.Testing_driver.monitors ());
    max_steps = 3_000;
    faults = Psharp.Fault.none;
    clock = None;
    lin = None;
  }

let migrating_table_entry name =
  {
    name;
    case_study = Cs_migrating_table;
    in_table2 = true;
    needs_custom_case = Chaintable.Bug_flags.needs_custom_case name;
    kind = `Safety;
    harness = Chaintable.Harness.test_for_bug name;
    custom_harness =
      (if Chaintable.Bug_flags.needs_custom_case name then
         Some (Chaintable.Harness.test_for_bug ~custom:true name)
       else None);
    fixed_harness = Chaintable.Harness.test ();
    monitors = no_monitors;
    max_steps = 4_000;
    faults = Psharp.Fault.none;
    clock = None;
    lin = Some (chaintable_lin ~bugs:(Chaintable.Bug_flags.with_bug name) ());
  }

let fabric_promotion_entry =
  {
    name = "FabricPromoteDuringCopy";
    case_study = Cs_fabric;
    in_table2 = false;
    needs_custom_case = false;
    kind = `Safety;
    harness = Fabric.Harness.test ~bugs:Fabric.Bug_flags.promotion_bug ();
    custom_harness = None;
    fixed_harness = Fabric.Harness.test ();
    monitors = (fun () -> Fabric.Harness.monitors ());
    max_steps = 3_000;
    faults = Psharp.Fault.none;
    clock = None;
    lin = None;
  }

let cscale_entry =
  {
    name = "CScaleNullReference";
    case_study = Cs_fabric;
    in_table2 = false;
    needs_custom_case = false;
    kind = `Safety;
    harness = Fabric.Chained.test ~bugs:Fabric.Bug_flags.cscale_bug ();
    custom_harness = None;
    fixed_harness = Fabric.Chained.test ();
    monitors = no_monitors;
    max_steps = 2_000;
    faults = Psharp.Fault.none;
    clock = None;
    lin = None;
  }

let example_entry name bugs kind =
  {
    name;
    case_study = Cs_example;
    in_table2 = false;
    needs_custom_case = false;
    kind;
    harness = Replication.Harness.test ~bugs ();
    custom_harness = None;
    fixed_harness = Replication.Harness.test ~bugs:Replication.Bug_flags.none ();
    monitors = (fun () -> Replication.Harness.monitors ());
    max_steps = 2_000;
    faults = Psharp.Fault.none;
    clock = None;
    lin = None;
  }

(* --- fault-only bugs (PR 4): reachable only when the engine injects
   faults, so each entry carries the spec the hunt must run with. --- *)

let vnext_crash_entry =
  {
    name = "ExtentNodeCrashLosesBinding";
    case_study = Cs_vnext;
    in_table2 = false;
    needs_custom_case = false;
    kind = `Liveness;
    harness =
      Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.crash_bug
        ~scenario:Vnext.Testing_driver.Fail_and_repair ();
    custom_harness = None;
    fixed_harness =
      Vnext.Testing_driver.test ~bugs:Vnext.Bug_flags.none
        ~scenario:Vnext.Testing_driver.Fail_and_repair ();
    monitors = (fun () -> Vnext.Testing_driver.monitors ());
    max_steps = 3_000;
    faults = Psharp.Fault.make [ Psharp.Fault.Crash ];
    clock = None;
    lin = None;
  }

let chaintable_dup_entry =
  {
    name = "ChaintableDuplicateBackendRequest";
    case_study = Cs_migrating_table;
    in_table2 = false;
    needs_custom_case = false;
    kind = `Safety;
    harness = Chaintable.Harness.test ~bugs:Chaintable.Bug_flags.dup_bug ();
    custom_harness = None;
    fixed_harness = Chaintable.Harness.test ();
    monitors = no_monitors;
    max_steps = 4_000;
    (* duplicate only: the backend RPC is a blocking round trip, so a
       dropped request would read as a deadlock rather than this bug *)
    faults = Psharp.Fault.make [ Psharp.Fault.Duplicate ];
    clock = None;
    lin = Some (chaintable_lin ~bugs:Chaintable.Bug_flags.dup_bug ());
  }

(* --- timeout/retry bug (virtual time): reachable only when the clock is
   on (the RPC timeout exists) and delay faults give hops latency. --- *)

let chaintable_retry_entry =
  {
    name = "ChaintableRetryFreshSeq";
    case_study = Cs_migrating_table;
    in_table2 = false;
    needs_custom_case = false;
    kind = `Safety;
    harness =
      Chaintable.Harness.test ~bugs:Chaintable.Bug_flags.retry_bug
        ~workloads:Chaintable.Workload.retry_case ();
    custom_harness = None;
    (* stream-free workloads (see Workload.retry_case): a latency-delayed
       stream read trips a separate pre-existing race that would drown
       this entry's defect *)
    fixed_harness =
      Chaintable.Harness.test ~workloads:Chaintable.Workload.retry_case ();
    monitors = no_monitors;
    max_steps = 4_000;
    (* delay only: a response held in flight past the RPC timeout is what
       makes the client retransmit; rpc_timeout (2) < max_delay (3) keeps
       the race reachable *)
    faults = Psharp.Fault.make [ Psharp.Fault.Delay ];
    clock = Some Psharp.Clock.default_config;
    lin =
      Some
        (chaintable_lin ~bugs:Chaintable.Bug_flags.retry_bug
           ~workloads:Chaintable.Workload.retry_case ());
  }

let fabric_crash_entry =
  {
    name = "FabricCrashSilentRestart";
    case_study = Cs_fabric;
    in_table2 = false;
    needs_custom_case = false;
    kind = `Liveness;
    harness = Fabric.Harness.test ~bugs:Fabric.Bug_flags.restart_bug ();
    custom_harness = None;
    fixed_harness = Fabric.Harness.test ();
    monitors = (fun () -> Fabric.Harness.monitors ());
    max_steps = 3_000;
    faults = Psharp.Fault.make [ Psharp.Fault.Crash ];
    clock = None;
    lin = None;
  }

(* --- shardkv rebalance bugs (post-paper workload): every entry is
   checked by the generic linearizability oracle over the recorded client
   history, runs on the virtual clock (client retransmits and handoff
   retries need timeouts), and hunts under crash+delay faults. --- *)

let shardkv_entry name =
  {
    name;
    case_study = Cs_shardkv;
    in_table2 = false;
    needs_custom_case = false;
    kind = `Safety;
    harness = Shardkv.Harness.test_for_bug name;
    custom_harness = None;
    fixed_harness = Shardkv.Harness.test ();
    monitors = no_monitors;
    max_steps = 5_000;
    faults =
      Psharp.Fault.make ~budget:2 [ Psharp.Fault.Delay; Psharp.Fault.Crash ];
    clock = Some Psharp.Clock.default_config;
    (* shardkv has no other oracle: the default harness IS the generic
       checker, so `--check-lin off` is rejected for these entries *)
    lin =
      Some
        {
          lin_default = true;
          lin_harness =
            (fun ~history_out ->
              Shardkv.Harness.test ~bugs:(Shardkv.Bug_flags.with_bug name)
                ?history_out ());
          lin_fixed =
            (fun ~history_out -> Shardkv.Harness.test ?history_out ());
        };
  }

let sample_entry name ~harness ~fixed_harness ~monitors ~max_steps =
  {
    name;
    case_study = Cs_sample;
    in_table2 = false;
    needs_custom_case = false;
    kind = `Safety;
    harness;
    custom_harness = None;
    fixed_harness;
    monitors;
    max_steps;
    faults = Psharp.Fault.none;
    clock = None;
    lin = None;
  }

let all =
  vnext_entry
  :: List.map migrating_table_entry Chaintable.Bug_flags.names
  @ [
      fabric_promotion_entry;
      cscale_entry;
      vnext_crash_entry;
      chaintable_dup_entry;
      chaintable_retry_entry;
      fabric_crash_entry;
    ]
  @ List.map shardkv_entry Shardkv.Bug_flags.names
  @ [
      example_entry "ExampleDuplicateReplicaAck" Replication.Bug_flags.bug1
        `Safety;
      example_entry "ExampleCounterNotReset" Replication.Bug_flags.bug2
        `Liveness;
      sample_entry "PaxosForgetPromise"
        ~harness:(Paxos.test ~bugs:Paxos.bug_forget_promise ())
        ~fixed_harness:(Paxos.test ())
        ~monitors:(fun () -> Paxos.monitors ())
        ~max_steps:2_000;
      sample_entry "PaxosChooseOwnValue"
        ~harness:(Paxos.test ~bugs:Paxos.bug_choose_own_value ())
        ~fixed_harness:(Paxos.test ())
        ~monitors:(fun () -> Paxos.monitors ())
        ~max_steps:2_000;
      sample_entry "RaftDoubleVote"
        ~harness:(Raft.test ~bugs:Raft.bug_double_vote ())
        ~fixed_harness:(Raft.test ())
        ~monitors:(fun () -> Raft.monitors ())
        ~max_steps:1_500;
      sample_entry "RaftStaleLeaderElection"
        ~harness:(Raft.test ~bugs:Raft.bug_stale_leader_election ())
        ~fixed_harness:(Raft.test ())
        ~monitors:(fun () -> Raft.monitors ())
        ~max_steps:1_500;
    ]

let table2 = List.filter (fun e -> e.in_table2) all

let config e =
  {
    Psharp.Engine.default_config with
    max_steps = e.max_steps;
    faults = e.faults;
    clock = e.clock;
  }

let find name =
  match List.find_opt (fun e -> e.name = name) all with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Bug_catalog.find: unknown bug %s" name)
