(** The generic-checker oracle for the MigratingTable harness (ISSUE 7
    satellite): a sequential replay model over the reference table's own
    [plan] semantics, judged by {!Psharp.Linearizability} against the
    history of (reference-table operation, migrating-table outcome) pairs
    the service machines record.

    Where the legacy oracle ({!Spec_check} plus the per-operation
    divergence asserts in {!Service_machine}) compares outcomes at the
    exact linearization point the Tables machine observed, this oracle
    only requires that {e some} linearization order within each
    operation's invoke/response window explains every recorded
    migrating-table outcome — the textbook correctness condition. The two
    agree on the witness corpus (see [test/test_linearizability.ml]);
    streamed reads remain validated by {!Spec_check}, as interval reads
    are outside a point-operation checker's vocabulary. *)

type state = private {
  rows : Table_types.row Reference_table.Key_map.t;
  next_etag : int;  (** the etag the next write gets *)
}

(** [model initial_rows] is the sequential spec, starting from the same
    seeded state the Tables machine gives its reference table. *)
val model :
  (Table_types.key * Table_types.props) list ->
  (state, Linearize.pending, Table_types.outcome) Psharp.Linearizability.model
