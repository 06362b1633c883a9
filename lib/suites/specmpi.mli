(** SPEC MPI2007 (paper §VI.A): the seven native MPI-parallel end-user
    applications of the paper's test set, with language mix and library
    appetite modelled from the real codes. *)

(** 115.fds4 — fire-dynamics CFD (Fortran; does not build with PGI). *)
val fds4 : Benchmark.t

(** 126.lammps — molecular dynamics (C++, links libstdc++ and FFTW). *)
val lammps : Benchmark.t

(** All seven, in the paper's order. *)
val all : Benchmark.t list
