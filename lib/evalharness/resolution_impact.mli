(** Resolution-impact aggregation (paper Table IV): successful executions
    before and after applying the resolution model, and the relative
    increase due to resolution. *)

type t = { migrations : int; successes_before : int; successes_after : int }

val of_suite : Feam_suites.Benchmark.suite -> Migrate.migration list -> t
val rate_before : t -> float
val rate_after : t -> float

(** "Increase in successful executions due to resolution": the increase
    divided by successes before resolution (paper §VI.B). *)
val relative_increase : t -> float

type missing_lib_stats = {
  failures_before : int;
  missing_lib_failures : int;
  missing_lib_fixed : int;
}

(** How many pre-resolution failures were missing-library failures, and
    how many of those resolution fixed (§VI.C). *)
val missing_lib_breakdown : Migrate.migration list -> missing_lib_stats
