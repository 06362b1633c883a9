(** User-effort model: the paper's future-work direction of quantifying
    the user effort migration tasks require, to compute the efficiency
    gains of FEAM's automation (§VII).

    Assigns minutes of human attention to the manual workflow (studying a
    site, trial-and-error submissions, chasing missing libraries) and to
    the FEAM workflow (configuration, launch-and-read), aggregated over
    the migration matrix. *)

(** The effort table printed by evaltool/bench. *)
val table : Migrate.migration list -> Feam_util.Table.t
