(** Compile simulator: what `mpicc`/`mpif90` under a given stack produce
    on a given site.  The output is a real ELF image whose dependency
    set, symbol-version references and .comment provenance follow from
    the stack, compiler family and site glibc — the channels the
    prediction model later reads.

    Every compile registers its image's {!Feam_sysmodel.Provenance} in
    the site's world ({!Feam_sysmodel.Build_world.register}).  A probe
    ([is_probe]) takes no serial: its build ID names its template's
    whole key, so equal keys give equal bytes and distinct keys distinct
    ones, and a {!templates} table keeps it as one
    {!Feam_elf.Reader.image} handle.  Any other build takes
    {!Build_id.next}, unique in its world. *)

(** A program source as the toolchain sees it. *)
type program = {
  prog_name : string;
  language : Feam_mpi.Stack.language;
  uses_mpi : bool;
  glibc_appetite : Feam_util.Version.t;
      (** newest glibc feature level the source uses *)
  extra_libs : Feam_util.Soname.t list;
  binary_size_mb : float;
  runtime_fragility : float;
  is_probe : bool;
  np_rule : [ `Any | `Power_of_two | `Square ];
      (** valid MPI process counts (NPB BT/SP need squares, kernels
          powers of two) *)
}

val program :
  ?language:Feam_mpi.Stack.language ->
  ?uses_mpi:bool ->
  ?glibc_appetite:Feam_util.Version.t ->
  ?extra_libs:Feam_util.Soname.t list ->
  ?binary_size_mb:float ->
  ?runtime_fragility:float ->
  ?is_probe:bool ->
  ?np_rule:[ `Any | `Power_of_two | `Square ] ->
  string ->
  program

(** MPI "hello world" probe sources (paper §V.B), C and Fortran. *)
val hello_world_mpi : program

val hello_world_mpi_fortran : program

type error =
  | Wrapper_missing of string
  | Compiler_unavailable
  | Source_incompatible of string

val error_to_string : error -> string

(** Probe templates by everything a template reads, compared by
    value: the site's name, machine, glibc and distro, the MPI stack,
    the compiler, the needed list and the program.  Lookups count as
    [toolchain.template.hit] / [.miss].  A pass holds one in its
    evaluation context. *)
type templates

val create_templates : unit -> templates

(** Compile with the stack's MPI wrapper; returns the ELF image's
    handle.  With [templates], a probe's template is looked up there,
    and made and kept on a miss; any other program builds anew. *)
val compile_mpi :
  ?templates:templates ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Stack_install.t ->
  program ->
  (Feam_elf.Reader.image, error) result

(** Native serial compile (probe programs); needs a native compiler. *)
val compile_serial :
  Feam_sysmodel.Site.t ->
  program ->
  (Feam_elf.Reader.image, error) result

(** Declared on-disk size of the program's binary. *)
val declared_size : program -> int

(** Compile and install the binary into the site filesystem; returns its
    path. *)
val compile_mpi_to :
  ?templates:templates ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Stack_install.t ->
  program ->
  dir:string ->
  (string, error) result
