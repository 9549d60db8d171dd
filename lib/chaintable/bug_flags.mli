(** The eleven re-introducible MigratingTable bugs of Table 2 (paper §6.2):
    eight organic bugs that occurred during development and three notional
    bugs (⊙). Each flag re-introduces one defect in the protocol; see
    DESIGN.md for the mapping. *)

type t = {
  query_atomic_filter_shadowing : bool;
      (** push the user filter down to both backend queries before merging,
          so a new-table row that fails the filter cannot shadow its stale
          old-table version *)
  query_streamed_lock : bool;
      (** stream merge breaks ties toward the old table, emitting stale or
          deleted (tombstoned) versions *)
  query_streamed_back_up_new_stream : bool;
      (** stream merge caches the new-table read-ahead instead of backing
          the new stream up to the merge cursor, missing rows the migrator
          moved old → new (§6.2 narrative) *)
  delete_no_leave_tombstones_etag : bool;
      (** in phases that do not leave tombstones, delete ignores the
          caller's etag and deletes unconditionally *)
  delete_primary_key : bool;
      (** delete resolves its target row by partition key only, hitting the
          first row of the partition instead of the addressed row *)
  ensure_partition_switched_from_populated : bool;
      (** the migrator's copy pass skips a partition that already has rows
          in the new table, assuming it was already copied *)
  tombstone_output_etag : bool;
      (** reads return the backend etag instead of the virtual etag for
          migrated rows, breaking later conditional operations *)
  query_streamed_filter_shadowing : bool;
      (** ⊙ streamed variant of the filter-shadowing defect *)
  migrate_skip_prefer_old : bool;
      (** ⊙ the migrator advances straight to PREFER_NEW, skipping the copy
          pass, so the prune pass destroys uncopied rows *)
  migrate_skip_use_new_with_tombstones : bool;
      (** ⊙ the migrator advances straight to USE_NEW, skipping tombstone
          cleanup, so the USE_NEW fast path exposes tombstone rows *)
  insert_behind_migrator : bool;
      (** ⊙ during PREFER_OLD, inserts go directly to the old table; a row
          inserted behind the migrator's copy cursor is never copied *)
  backend_no_dedup : bool;
      (** ChaintableDuplicateBackendRequest (not in Table 2, absent from
          [names]): the Tables machine skips the per-client sequence-number
          dedup, so a backend request duplicated by the fault substrate
          executes twice and a linearized call trips the
          double-linearization assert. Only findable with [dup] message
          faults enabled. *)
  retry_fresh_seq : bool;
      (** ChaintableRetryFreshSeq (not in Table 2, absent from [names]):
          under virtual time {!Remote_backend} retries a backend RPC whose
          response missed the timeout. The fixed protocol retransmits the
          {e same} sequence number, so the server's dedup absorbs the
          retry of an already-executed call; with this flag the retry
          draws a {e fresh} sequence number — the classic
          timeout-retry-as-new-request defect — so when the response (not
          the request) was delayed, the already-linearized call executes a
          second time and trips the double-linearization assert. Only
          findable with the clock on and [delay] message faults. *)
}

val none : t

(** [none] with [backend_no_dedup] armed. *)
val dup_bug : t

(** [none] with [retry_fresh_seq] armed. *)
val retry_bug : t

(** [with_bug name] returns [none] with the named flag set.
    @raise Invalid_argument on an unknown name. *)
val with_bug : string -> t

(** All bug names, in Table 2 order. *)
val names : string list

(** Bugs the paper could only trigger with a custom (pinned-input) test
    case — the ⊙ column of Table 2. *)
val needs_custom_case : string -> bool
