(** The Binary Description Component's output record (paper Figure 3):
    ISA and file format, library name/version when the binary is itself a
    shared library, required shared libraries, C library version
    requirements, and build provenance. *)

type t = {
  path : string;
  file_format : string;  (** objdump format descriptor, e.g. "elf64-x86-64" *)
  machine : Feam_elf.Types.machine;
  elf_class : Feam_elf.Types.elf_class;
  soname : Feam_util.Soname.t option;
      (** set when the binary is a shared library *)
  needed : string list;  (** DT_NEEDED entries *)
  rpath : string option;
  runpath : string option;
  verneeds : (string * string list) list;
      (** version names required, per supplying object *)
  required_glibc : Feam_util.Version.t option;
      (** the binary's {e required C library version}: the newest glibc
          symbol version referenced (paper §III.C), not the build version *)
  mpi : Mpi_ident.identification option;
  provenance : Objdump_parse.provenance;
}

(** The newest GLIBC_* version among a verneed list. *)
val required_glibc_of_verneeds :
  (string * string list) list -> Feam_util.Version.t option

(** Build a description from parsed objdump output.
    Errors on unrecognized file-format descriptors. *)
val of_dynamic_info :
  path:string ->
  provenance:Objdump_parse.provenance ->
  Objdump_parse.dynamic_info ->
  (t, string) result

(** JSON round-trip for the flight recorder's journal: primitives are
    stored, derived fields recomputed by {!of_json} (same contract as
    the bundle format). *)
val to_json : t -> Feam_util.Json.t

val of_json : Feam_util.Json.t -> (t, string) result

val pp : t Fmt.t
