(** User-effort model: the paper's future-work direction of quantifying
    the user effort migration tasks require, to compute the efficiency
    gains of FEAM's automation (§VII).

    Assigns minutes of human attention to the manual workflow (studying a
    site, trial-and-error submissions, chasing missing libraries) and to
    the FEAM workflow (configuration, launch-and-read), aggregated over
    the migration matrix. *)

(** Manual effort for one migration, derived from what actually
    happened. *)
val manual_minutes : Migrate.migration -> float

(** FEAM effort for one migration (human attention only; machine time is
    excluded). *)
val feam_minutes : Migrate.migration -> float

type summary = {
  migrations : int;
  manual_total_minutes : float;
  feam_total_minutes : float;
}

val summarize : Migrate.migration list -> summary
val of_suite : Feam_suites.Benchmark.suite -> Migrate.migration list -> summary

(** Efficiency gain: manual effort divided by FEAM effort. *)
val gain : summary -> float

(** The effort table printed by evaltool/bench. *)
val table : Migrate.migration list -> Feam_util.Table.t
