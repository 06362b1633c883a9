(** Severity calibration of the cell-rule set against the agreement
    corpus's dynamic-linker oracle.  For each lint rule: on how many
    scenarios it fired, how often its warn-or-worse findings co-occur
    with an oracle failure (its precision as a failure signal), and
    whether its default severity should be demoted — a rule whose
    warnings never co-occur with a failure over the corpus is noise at
    warn level and is demoted to info. *)

type row = {
  cal_rule : string;
  cal_level : Feam_core.Diagnose.level;  (** the rule's default level *)
  cal_fired : int;  (** scenarios with >= 1 finding from the rule *)
  cal_warned : int;  (** scenarios with >= 1 warn-or-worse finding *)
  cal_cofail : int;  (** warned scenarios where the oracle also failed *)
  cal_demote : bool;
      (** warned on some scenario, never alongside an oracle failure *)
}

(** One row per registered cell rule, in registry (id) order. *)
val rows : Harness.run list -> row list

(** Ids of the rules {!rows} demotes, sorted. *)
val demotions : Harness.run list -> string list

(** The calibration table evaltool prints. *)
val table : Harness.run list -> Feam_util.Table.t

(** The same table as GitHub-flavored markdown — the README carries it
    verbatim for the corpus named in the header, drift-tested like the
    rule table. *)
val markdown_table : Harness.run list -> string
