(** SPEC MPI2007 (paper §VI.A): the seven native MPI-parallel end-user
    applications of the paper's test set, with language mix and library
    appetite modelled from the real codes. *)

(** All seven, in the paper's order. *)
val all : Benchmark.t list
