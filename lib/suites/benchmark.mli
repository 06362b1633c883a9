(** A benchmark as the workload generator sees it: the source program
    handed to the toolchain plus its build fragility — not every
    benchmark compiles with every MPI stack combination, which is why the
    paper's test set is a subset of the suites (§VI.A). *)

type suite = Nas | Spec_mpi2007

val suite_name : suite -> string

type t = {
  bench_name : string;
  suite : suite;
  description : string;
  language : Feam_mpi.Stack.language;
  glibc_appetite : Feam_util.Version.t;
      (** newest glibc feature level the code uses *)
  extra_libs : Feam_util.Soname.t list;
  lib_families : Feam_toolchain.Libdb.scientific_family list;
      (** site-local scientific libraries the code links (FFTW, HDF5) *)
  binary_size_mb : float;
  compile_fragility : float;
      (** probability a given MPI stack fails to build it *)
  runtime_fragility : float;
      (** probability of application-code defects at a foreign site *)
  incompatible_compilers : Feam_mpi.Compiler.family list;
      (** deterministic build exclusions *)
  np_rule : [ `Any | `Power_of_two | `Square ];
      (** valid MPI process counts at startup *)
}

val make :
  ?language:Feam_mpi.Stack.language ->
  ?glibc_appetite:string ->
  ?extra_libs:Feam_util.Soname.t list ->
  ?lib_families:Feam_toolchain.Libdb.scientific_family list ->
  ?binary_size_mb:float ->
  ?compile_fragility:float ->
  ?runtime_fragility:float ->
  ?incompatible_compilers:Feam_mpi.Compiler.family list ->
  ?np_rule:[ `Any | `Power_of_two | `Square ] ->
  suite:suite ->
  description:string ->
  string ->
  t

(** The toolchain's view of the benchmark when built at a site (scientific
    families resolve to the site generation's sonames). *)
val to_program : site:Feam_sysmodel.Site.t -> t -> Feam_toolchain.Compile.program

(** Does the benchmark build with the stack, given the seeded fragility
    draw? *)
val compiles_with : t -> Feam_mpi.Stack.t -> fragility_draw:bool -> bool
