(** Recursive dependency resolution: the load-time half of the ground
    truth.  Walks the DT_NEEDED closure of a binary, checking
    class/machine of every object and every GNU symbol-version
    requirement against the providers actually found. *)

type resolved_lib = {
  lib_name : string;  (** the requested DT_NEEDED string *)
  lib_path : string;  (** where it was found *)
  lib_spec : Feam_elf.Spec.t;
  lib_parsed : Feam_elf.Reader.t;
      (** the parse; {!Feam_elf.Reader.digest} reads the image's digest
          from it on demand *)
}

type version_failure = {
  vf_object : string;  (** object that required the version *)
  vf_provider : string;  (** closure member consulted for the version *)
  vf_scope_pos : int option;
      (** the provider's position in load order ([None] only for
          failures constructed outside a live resolution) *)
  vf_version : string;  (** the version name, e.g. GLIBC_2.7 *)
}

type arch_mismatch = { am_lib : string; am_path : string }

type t = {
  root_spec : Feam_elf.Spec.t;
  resolved : resolved_lib list;  (** transitive closure, load order *)
  missing : string list;  (** DT_NEEDED names never located *)
  arch_mismatches : arch_mismatch list;
  version_failures : version_failure list;
}

(** No missing libraries, architecture mismatches or version failures. *)
val ok : t -> bool

(** [consulted_provider resolved file] — the closure member ld.so would
    consult for versions required from [file]: the first, in load order,
    loaded under that name or claiming it by DT_SONAME, with its
    position.  Shared by the version check and by symcheck so both agree
    on the consulted object. *)
val consulted_provider :
  resolved_lib list -> string -> (int * resolved_lib) option

(** Resolve the dependency closure of an object under the given
    environment at the given site. *)
val run : Feam_sysmodel.Site.t -> Feam_sysmodel.Env.t -> Feam_elf.Spec.t -> t
