(* Ground-truth provenance of built images.

   A real binary physically carries its complete ABI (full dynamic symbol
   tables, calling conventions, build-time constant choices); our images
   model only the metadata channels FEAM reads.  The executor still needs
   the full ABI to decide subtle failures — foreign-binary defects,
   incompatible library copies — so the toolchain registers each image's
   provenance here, keyed by the image bytes themselves.  FEAM never
   consults this registry: it sees only ELF bytes through the tool
   emulations. *)

open Feam_util

type t = {
  program_name : string;
  build_site : string;
  build_glibc : Version.t;
  stack : Feam_mpi.Stack.t option; (* None for non-MPI objects *)
  compiler : Feam_mpi.Compiler.t;
  (* Probability that the program's own numerics/assumptions break on a
     foreign site (floating-point traps, endianness of data files, ...):
     defects in application code that no hello-world probe can reveal. *)
  runtime_fragility : float;
  (* For shared libraries: probability that a staged copy of this object
     breaks on ABI subtleties when used on a foreign site. *)
  copy_abi_fragility : float;
  (* Probe programs are sub-minute, single-node debug-queue jobs; the
     system-error class (daemon spawn failures, communication timeouts
     under load) afflicts full-scale application launches. *)
  is_probe : bool;
  (* Valid MPI process counts for the program. *)
  np_rule : [ `Any | `Power_of_two | `Square ];
}

let registry : (string, t) Hashtbl.t = Hashtbl.create 1024

let key image = Digest.string image

let register image t = Hashtbl.replace registry (key image) t

(* For callers that already hold the image's digest (a parsed image
   carries one): the same lookup without hashing the bytes again. *)
let find_digest digest = Hashtbl.find_opt registry digest

let find image = find_digest (key image)
