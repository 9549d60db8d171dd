type t = {
  query_atomic_filter_shadowing : bool;
  query_streamed_lock : bool;
  query_streamed_back_up_new_stream : bool;
  delete_no_leave_tombstones_etag : bool;
  delete_primary_key : bool;
  ensure_partition_switched_from_populated : bool;
  tombstone_output_etag : bool;
  query_streamed_filter_shadowing : bool;
  migrate_skip_prefer_old : bool;
  migrate_skip_use_new_with_tombstones : bool;
  insert_behind_migrator : bool;
  backend_no_dedup : bool;
  retry_fresh_seq : bool;
}

let none =
  {
    query_atomic_filter_shadowing = false;
    query_streamed_lock = false;
    query_streamed_back_up_new_stream = false;
    delete_no_leave_tombstones_etag = false;
    delete_primary_key = false;
    ensure_partition_switched_from_populated = false;
    tombstone_output_etag = false;
    query_streamed_filter_shadowing = false;
    migrate_skip_prefer_old = false;
    migrate_skip_use_new_with_tombstones = false;
    insert_behind_migrator = false;
    backend_no_dedup = false;
    retry_fresh_seq = false;
  }

(* Not part of Table 2 (hence absent from [names]): only observable when
   the engine injects message faults. *)
let dup_bug = { none with backend_no_dedup = true }

(* Not part of Table 2 either: only observable under virtual time with
   delay faults, where an RPC can outlive its timeout. *)
let retry_bug = { none with retry_fresh_seq = true }

let names =
  [
    "QueryAtomicFilterShadowing";
    "QueryStreamedLock";
    "QueryStreamedBackUpNewStream";
    "DeleteNoLeaveTombstonesEtag";
    "DeletePrimaryKey";
    "EnsurePartitionSwitchedFromPopulated";
    "TombstoneOutputETag";
    "QueryStreamedFilterShadowing";
    "MigrateSkipPreferOld";
    "MigrateSkipUseNewWithTombstones";
    "InsertBehindMigrator";
  ]

let with_bug = function
  | "QueryAtomicFilterShadowing" -> { none with query_atomic_filter_shadowing = true }
  | "QueryStreamedLock" -> { none with query_streamed_lock = true }
  | "QueryStreamedBackUpNewStream" ->
    { none with query_streamed_back_up_new_stream = true }
  | "DeleteNoLeaveTombstonesEtag" ->
    { none with delete_no_leave_tombstones_etag = true }
  | "DeletePrimaryKey" -> { none with delete_primary_key = true }
  | "EnsurePartitionSwitchedFromPopulated" ->
    { none with ensure_partition_switched_from_populated = true }
  | "TombstoneOutputETag" -> { none with tombstone_output_etag = true }
  | "QueryStreamedFilterShadowing" ->
    { none with query_streamed_filter_shadowing = true }
  | "MigrateSkipPreferOld" -> { none with migrate_skip_prefer_old = true }
  | "MigrateSkipUseNewWithTombstones" ->
    { none with migrate_skip_use_new_with_tombstones = true }
  | "InsertBehindMigrator" -> { none with insert_behind_migrator = true }
  | name -> invalid_arg (Printf.sprintf "Bug_flags.with_bug: unknown bug %s" name)

let needs_custom_case = function
  | "QueryStreamedFilterShadowing" | "MigrateSkipPreferOld"
  | "MigrateSkipUseNewWithTombstones" | "InsertBehindMigrator" -> true
  | _ -> false
