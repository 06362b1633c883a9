(** Severity calibration of the cell-rule set against the agreement
    corpus's dynamic-linker oracle.  For each lint rule: on how many
    scenarios it fired, how often its warn-or-worse findings co-occur
    with an oracle failure (its precision as a failure signal), and
    whether its default severity should be demoted — a rule whose
    warnings never co-occur with a failure over the corpus is noise at
    warn level and is demoted to info. *)

(** Ids of the rules the calibration demotes, sorted: a rule whose
    warnings never co-occur with an oracle failure. *)
val demotions : Harness.run list -> string list

(** The calibration table evaltool prints. *)
val table : Harness.run list -> Feam_util.Table.t
