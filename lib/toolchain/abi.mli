(** Deterministic API-symbol model of the simulated toolchain: what
    every library exports and every compiled binary imports, as a
    function of the build environment's glibc {e vintage}.  Newer
    builds add feature symbols at the same soname major — the channel
    that makes the soname-major heuristic unsound in the simulated
    world, and the one {!Feam_symcheck} is built to expose. *)

(** [.dynsym] contents of a catalog library. *)
val library_dynsyms :
  bits:[ `B32 | `B64 ] ->
  glibc:Feam_util.Version.t ->
  part_of_glibc:bool ->
  libc_versions:string list ->
  string ->
  Feam_elf.Spec.dynsym list

(** [.dynsym] contents of the C library itself: one representative
    export per symbol version its release defines. *)
val libc_dynsyms : glibc:Feam_util.Version.t -> Feam_elf.Spec.dynsym list

(** [.dynsym] contents of a compiled program, over its DT_NEEDED list. *)
val binary_dynsyms :
  bits:[ `B32 | `B64 ] ->
  glibc:Feam_util.Version.t ->
  libc_versions:string list ->
  needed:string list ->
  Feam_elf.Spec.dynsym list
