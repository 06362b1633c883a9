(** Validates the soname-major heuristic against the symbol closure:
    for every migration pair, re-runs the library-level resolution at
    the target and diffs it against a {!Feam_symcheck.Symcheck} walk.
    An *overturn* is a pair the library-level determinant accepts but
    the symbol closure refutes. *)

type t = {
  migrations : int;  (** pairs examined (matching MPI impl, other site) *)
  lib_accepted : int;  (** the library-level determinant accepts *)
  overturned : int;  (** accepted, yet the symbol closure refutes *)
  miss_symbols : int;  (** definitive strong misses across overturned pairs *)
}

val of_suite :
  Feam_suites.Benchmark.suite ->
  Feam_sysmodel.Site.t list ->
  Testset.binary list ->
  t

(** Share of pairs the library-level determinant accepts. *)
val acceptance_rate : t -> float

(** Share of library-level acceptances the symbol closure refutes —
    the unsoundness rate of the soname-major heuristic. *)
val overturn_rate : t -> float
