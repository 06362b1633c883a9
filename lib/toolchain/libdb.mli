(** Catalog of the shared libraries that populate simulated sites:
    system libraries, compiler runtimes, InfiniBand user-space libraries,
    scientific libraries and MPI implementation libraries.

    Each entry records the library's soname, a realistic on-disk size
    (bundle accounting, paper §VI.C), its dependencies, its {e glibc
    appetite} (newest glibc feature level its own code uses — deciding
    whether a copy can serve an older site) and its copy-ABI fragility. *)

type origin =
  | System
  | Gnu_runtime
  | Vendor_runtime of Feam_mpi.Compiler.family
  | Infiniband
  | Mpi

type entry = {
  soname : Feam_util.Soname.t;
  size_mb : float;
  appetite : Feam_util.Version.t;
  deps : Feam_util.Soname.t list;
  origin : origin;
  part_of_glibc : bool;
  copy_abi_fragility : float;
}

val portable : Feam_util.Version.t

val libz : entry
val libstdcxx : entry
val base_system : entry list
val libgcc_s : entry

(** Fortran runtime entries for a GCC release (libg2c / libgfortran). *)
val gnu_fortran_runtime : Feam_util.Version.t -> entry list

val intel_runtime : entry list
val pgi_runtime : Feam_util.Version.t -> entry list

(** Site-local scientific libraries whose sonames differ across
    distribution generations (FFTW 2/3, HDF5). *)
type scientific_family = Fftw | Hdf5

type generation = Old_generation | New_generation

val scientific_soname : scientific_family -> generation -> Feam_util.Soname.t
val scientific_entry : scientific_family -> generation -> entry
val scientific_families : scientific_family list

val infiniband_libs : entry list

(** MPI libraries a stack installs under its prefix (dependency structure
    per implementation, including the Table I fingerprints). *)
val mpi_entries : Feam_mpi.Stack.t -> entry list

val size_bytes : entry -> int
