(** The re-introducible bugs of Table 2 (paper §6.2), plus the extra bugs
    this reproduction models (the Fig. 1 example bugs, the Fabric promotion
    bug and the CScale exception, which the paper discusses outside
    Table 2).

    "After all the discovered bugs were fixed, we added flags to allow them
    to be individually re-introduced, for purposes of evaluation." *)

type case_study =
  | Cs_vnext  (** 1 — Azure Storage vNext *)
  | Cs_migrating_table  (** 2 — MigratingTable *)
  | Cs_fabric  (** Fabric model / CScale (not in the paper's Table 2) *)
  | Cs_example  (** the §2.2 running example *)
  | Cs_sample  (** P# sample protocols the paper points to: Paxos, Raft *)
  | Cs_shardkv
      (** sharded rebalancing KV — post-paper workload checked by the
          generic linearizability oracle *)

val case_study_to_string : case_study -> string

(** Generic-linearizability-oracle variants of a harness (ISSUE 7):
    available for workloads that record client {!Psharp.History}s and
    carry a sequential model for the {!Psharp.Linearizability} checker.
    [history_out], when [Some path], makes the harness save the recorded
    history to [path] once the workload completes (used by
    [replay --history-out]). *)
type lin_support = {
  lin_default : bool;
      (** the entry's default [harness] already judges by the generic
          checker (shardkv) — there is no legacy oracle to fall back to *)
  lin_harness : history_out:string option -> Psharp.Runtime.ctx -> unit;
  lin_fixed : history_out:string option -> Psharp.Runtime.ctx -> unit;
}

type entry = {
  name : string;  (** Table 2 "Bug Identifier" *)
  case_study : case_study;
  in_table2 : bool;  (** appears as a row of the paper's Table 2 *)
  needs_custom_case : bool;  (** the paper's ⊙ marker *)
  kind : [ `Safety | `Liveness ];
  harness : Psharp.Runtime.ctx -> unit;  (** default (random-input) harness *)
  custom_harness : (Psharp.Runtime.ctx -> unit) option;
      (** pinned-input custom test case, when one exists *)
  fixed_harness : Psharp.Runtime.ctx -> unit;
      (** same harness with the bug fixed (for no-false-positive runs) *)
  monitors : unit -> Psharp.Monitor.t list;
  max_steps : int;  (** liveness bound suited to this harness *)
  faults : Psharp.Fault.spec;
      (** faults the hunt must inject for the bug to be reachable
          ({!Psharp.Fault.none} for every schedule-only bug). The runner
          uses this spec unless the user overrides it with [--faults]. *)
  clock : Psharp.Clock.config option;
      (** virtual-time config the hunt must run with ([None] for every bug
          reachable without simulated time). The runner uses it unless the
          user overrides it with [--clock]. *)
  lin : lin_support option;
      (** generic-checker harness variants ([--check-lin]); [None] for
          harnesses that do not record client histories *)
}

(** All catalog entries, Table 2 rows first, in the paper's order. *)
val all : entry list

(** Only the 12 rows of the paper's Table 2. *)
val table2 : entry list

val find : string -> entry

(** {!Psharp.Engine.default_config} with the entry's [max_steps], [faults]
    and [clock]: the config every run of this bug starts from, before the
    caller sets its strategy, seed and budget. *)
val config : entry -> Psharp.Engine.config
