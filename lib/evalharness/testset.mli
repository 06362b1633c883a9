(** Test-set construction (paper §VI.A): compile each benchmark with each
    utilized MPI stack at each site; keep binaries that both compile and
    execute at their home site (the paper ended with 110 NPB + 147 SPEC
    binaries). *)

type binary = {
  id : string;  (** "NAS/bt.A\@ranger/openmpi-1.3-intel" *)
  benchmark : Feam_suites.Benchmark.t;
  home : Feam_sysmodel.Site.t;
  install : Feam_sysmodel.Stack_install.t;  (** build stack at home *)
  home_path : string;
  bytes : string;
  image : Feam_elf.Reader.image;
      (** the handle of [bytes], the one the home site's file keeps *)
  declared_size : int;
}

(** The full test set over the given sites and benchmarks. *)
val build :
  Params.t ->
  Feam_sysmodel.Site.t list ->
  Feam_suites.Benchmark.t list ->
  binary list

(** (NPB count, SPEC count). *)
val count_by_suite : binary list -> int * int

(** [by_id binaries] builds an id-keyed index once; applying it to an id
    returns the first binary with that id ([Not_found] when none has
    it). *)
val by_id : binary list -> string -> binary
