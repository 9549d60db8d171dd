(** Filter evaluation over rows. *)

(** [matches filter row] evaluates the filter. Property comparisons on a
    property the row lacks are false (Azure semantics), except [Ne], which
    is true for a missing property. *)
val matches : Filter0.t -> Table_types.row -> bool

(** A filter that selects a whole partition. *)
val of_pk : string -> Filter0.t
