(** Ground-truth provenance of built images.

    A real binary physically carries its complete ABI (full dynamic
    symbol tables, calling conventions, build-time constants); our images
    model only the metadata channels FEAM reads.  The executor still
    needs the full ABI to decide subtle failures, so the toolchain
    registers each image's provenance here, keyed by the image bytes.
    FEAM never consults this registry. *)

type t = {
  program_name : string;
  build_site : string;
  build_glibc : Feam_util.Version.t;
  stack : Feam_mpi.Stack.t option;  (** [None] for non-MPI objects *)
  compiler : Feam_mpi.Compiler.t;
  runtime_fragility : float;
      (** probability the program's own numerics/assumptions break on a
          foreign site — invisible to hello-world probes *)
  copy_abi_fragility : float;
      (** for shared libraries: probability a staged copy breaks on ABI
          subtleties when used on a foreign site *)
  is_probe : bool;
      (** probe-scale jobs are immune to load-induced system errors *)
  np_rule : [ `Any | `Power_of_two | `Square ];
      (** valid MPI process counts for the program *)
}

val register : string -> t -> unit
val find : string -> t option

(** [find_digest (Digest.string image)] is [find image]; for callers
    that already hold the digest, e.g. {!Feam_elf.Reader.digest}. *)
val find_digest : Digest.t -> t option
