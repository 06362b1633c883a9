(** The Environment Discovery Component's output record (paper Figure 4):
    ISA format, operating system, C library version, available and loaded
    MPI stacks. *)

type via = Modules | Softenv | Path_search

type discovered_stack = {
  slug : string;  (** e.g. "openmpi-1.4.3-intel" *)
  impl : Feam_mpi.Impl.t;
  impl_version : Feam_util.Version.t option;
  compiler_family : Feam_mpi.Compiler.family option;
  discovered_via : via;
}

type t = {
  env_type : [ `Target | `Guaranteed ];
  machine : Feam_elf.Types.machine option;
  elf_class : Feam_elf.Types.elf_class option;
  os : string option;  (** distribution, informational (paper §V.B) *)
  kernel : string option;  (** from /proc/version *)
  glibc : Feam_util.Version.t option;
  stacks : discovered_stack list;  (** available MPI stacks *)
  current_stack : discovered_stack option;  (** loaded in this session *)
}

(** Parse a stack slug of the conventional "impl-version-compiler" shape,
    as real sites' path naming reveals (paper §V.B).  [None] when the
    first component is not a known MPI implementation. *)
val parse_stack_slug : via:via -> string -> discovered_stack option

(** JSON round-trip for the flight recorder's journal: stacks stored
    as slug + discovery method, re-derived on load (same contract as
    the bundle format).  [of_json] is total over objects — absent or
    malformed fields degrade to [None]/[[]]. *)
val to_json : t -> Feam_util.Json.t

val of_json : Feam_util.Json.t -> (t, string) result

val pp : t Fmt.t
