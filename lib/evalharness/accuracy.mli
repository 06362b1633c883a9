(** Prediction-accuracy aggregation (paper Table III) and failure-cause
    classification (§VI.C results analysis). *)

type confusion = {
  true_ready : int;  (** predicted ready, ran *)
  false_ready : int;  (** predicted ready, failed *)
  true_not_ready : int;  (** predicted not ready, failed *)
  false_not_ready : int;  (** predicted not ready, ran *)
}

val accuracy : confusion -> float

type mode = Basic | Extended

val confusion_of : mode -> Migrate.migration list -> confusion

(** Per-suite accuracy for one mode, as a fraction. *)
val suite_accuracy :
  mode -> Feam_suites.Benchmark.suite -> Migrate.migration list -> float

type cause =
  | Missing_shared_libraries
  | C_library_version
  | Abi_or_fp
  | Stack_problem
  | System_errors
  | Other

val cause_name : cause -> string
val classify : Feam_dynlinker.Exec.failure -> cause

(** Histogram of failure causes for a selector over migrations. *)
val failure_histogram :
  (Migrate.migration -> Feam_dynlinker.Exec.outcome) ->
  Migrate.migration list ->
  (cause * int) list
