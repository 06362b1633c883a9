(** Dynamic-linker library search semantics.

    Directory precedence follows ld.so: DT_RPATH (only when no DT_RUNPATH
    is present), LD_LIBRARY_PATH, DT_RUNPATH, the linker-cache
    directories (/etc/ld.so.conf registrations), then the system default
    directories.  Both the ground-truth executor and the ldd emulation
    use these rules, so a library exposed by the resolution model's
    environment edits is found exactly as a real system would. *)

(** Search directories for resolving the dependencies of a parsed object
    under an environment at a site.  [origin] is the directory of the
    file the object was read from: [$ORIGIN] and [${ORIGIN}] in its
    DT_RPATH or DT_RUNPATH stand for it.  An entry that is still relative
    after that expansion (or with no [origin]) is skipped, as is a
    relative [LD_LIBRARY_PATH] entry. *)
val search_dirs :
  ?origin:string ->
  Feam_sysmodel.Site.t ->
  Feam_sysmodel.Env.t ->
  Feam_elf.Spec.t ->
  string list

(** Whether a DT_RPATH or DT_RUNPATH value, if any, names [$ORIGIN]. *)
val names_origin : string option -> bool

(** First regular-file match for a name across the directories (symlinks
    followed). *)
val locate_in_dirs :
  Feam_sysmodel.Site.t -> string list -> string -> string option

(** Locate and parse: the search directory that matched, the path with
    symlinks followed, the image's handle and its spec; [None] when not
    found or not parseable ELF.  With [reads], every lookup is tracked
    ({!Feam_sysmodel.Vfs.resolve_image}). *)
val locate_elf :
  ?reads:Feam_sysmodel.Vfs.reads ->
  Feam_sysmodel.Site.t ->
  string list ->
  string ->
  (string * string * Feam_elf.Reader.image * Feam_elf.Spec.t) option
