(** Recursive dependency resolution: the load-time half of the ground
    truth.  Walks the DT_NEEDED closure of a binary, checking
    class/machine of every object and every GNU symbol-version
    requirement against the providers actually found. *)

type resolved_lib = {
  lib_name : string;  (** the requested DT_NEEDED string *)
  lib_path : string;  (** where it was found *)
  lib_spec : Feam_elf.Spec.t;
  lib_image : Feam_elf.Reader.image;
      (** the handle; {!Feam_elf.Reader.image_digest} reads the image's
          digest from it on demand *)
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

(** The closure memo (DESIGN §21): one walk per distinct input while
    the directories it consulted keep their versions.  A pass carries
    one in its evaluation context; there is no global instance. *)
type memo

val create_memo : unit -> memo

(** Resolve the dependency closure of an object under the given
    environment at the given site.  [path] is the file the object was
    read from; its directory is what [$ORIGIN] in the object's own
    DT_RPATH or DT_RUNPATH stands for.  A dependency's [$ORIGIN] is the
    directory it was found in by search, symlinks not followed.

    With [closures], a walk is made once per key and reused while every
    directory it consulted ({!Feam_sysmodel.Vfs.resolve_image}'s read
    set, symlink hops included) keeps its version.  The key is the
    root's class, machine, needed list, verneeds, rpath and runpath, its
    directory when those name [$ORIGIN], [LD_LIBRARY_PATH], and the
    site's ld-cache and default directories.  Entries are held per site
    name; a lookup that finds the name on another file system than its
    entries were read from drops them first.  A hit returns the stored
    closure with this call's [root_spec] and journals the same
    [dynlinker]/[resolve] evidence as a miss.  Lookups count as
    [dynlinker.closure_memo.hit] / [dynlinker.closure_memo.miss]. *)
val run :
  ?closures:memo ->
  ?path:string ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  Feam_elf.Spec.t ->
  t
