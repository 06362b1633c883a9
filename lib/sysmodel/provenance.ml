(** Ground-truth provenance of built images.

    A real binary physically carries its complete ABI (full dynamic
    symbol tables, calling conventions, build-time constant choices);
    our images model only the metadata channels FEAM reads.  The
    executor still needs the full ABI to decide subtle failures —
    foreign-binary defects, incompatible library copies — so the
    toolchain registers each image's provenance in its world's table
    ({!Build_world.register}), keyed by the image's digest.  FEAM never
    consults it: it sees only ELF bytes through the tool emulations.
    The module is this one type, so it has no separate interface. *)

type t = {
  program_name : string;
  build_site : string;
  build_glibc : Feam_util.Version.t;
  stack : Feam_mpi.Stack.t option;  (** [None] for non-MPI objects *)
  compiler : Feam_mpi.Compiler.t;
  runtime_fragility : float;
      (** probability the program's own numerics/assumptions break on a
          foreign site (floating-point traps, endianness of data files):
          defects in application code that no hello-world probe can
          reveal *)
  copy_abi_fragility : float;
      (** for shared libraries: probability a staged copy breaks on ABI
          subtleties when used on a foreign site *)
  is_probe : bool;
      (** probe programs are sub-minute, single-node debug-queue jobs,
          immune to the load-induced system errors (daemon spawn
          failures, communication timeouts) of full-scale launches *)
  np_rule : [ `Any | `Power_of_two | `Square ];
      (** valid MPI process counts for the program *)
}
