(** The NAS Parallel Benchmarks, MPI reference implementation 2.4 (paper
    §VI.A): four kernels — integer sort, embarrassingly parallel,
    conjugate gradient, multi-grid — and three pseudo-applications —
    block tridiagonal, scalar penta-diagonal and lower-upper Gauss-Seidel
    solvers. *)

(** All seven, in the paper's order. *)
val all : Benchmark.t list
