(** High-level description of an ELF object: exactly the information
    channel the migration framework reads through objdump/readelf.
    {!Builder} turns a spec into real ELF bytes; {!Reader} recovers a
    spec from bytes. *)

(** One "Version References" block: version names required from one
    shared object (e.g. GLIBC_2.3.4 required from libc.so.6). *)
type verneed = { vn_file : string; vn_versions : string list }

(** Dynamic-symbol binding (the high nibble of st_info).  Local symbols
    never reach [.dynsym], so only the external bindings are modelled. *)
type sym_binding = Global | Weak

(** One [.dynsym] entry with its [.gnu.version] association resolved to
    a version name ([None] = unversioned). *)
type dynsym = {
  sym_name : string;
  sym_defined : bool;  (** st_shndx <> SHN_UNDEF *)
  sym_binding : sym_binding;
  sym_version : string option;
}

type t = {
  elf_class : Types.elf_class;
  endian : Types.endian;
  machine : Types.machine;
  file_type : Types.file_type;
  soname : string option;  (** DT_SONAME; present for shared libraries *)
  needed : string list;  (** DT_NEEDED entries, link order *)
  rpath : string option;  (** DT_RPATH *)
  runpath : string option;  (** DT_RUNPATH *)
  verneeds : verneed list;  (** .gnu.version_r *)
  verdefs : string list;  (** .gnu.version_d: version names defined *)
  dynsyms : dynsym list;  (** .dynsym entries (index-0 null entry excluded) *)
  comments : string list;  (** .comment: toolchain provenance strings *)
  abi_note : (int * int * int) option;  (** .note.ABI-tag: minimum kernel *)
  interp : string option;  (** PT_INTERP: the dynamic loader path *)
}

(** Build a spec; class and endianness default to the machine's natural
    ones. *)
val make :
  ?file_type:Types.file_type ->
  ?soname:string ->
  ?needed:string list ->
  ?rpath:string ->
  ?runpath:string ->
  ?verneeds:verneed list ->
  ?verdefs:string list ->
  ?dynsyms:dynsym list ->
  ?comments:string list ->
  ?abi_note:int * int * int ->
  ?interp:string ->
  ?elf_class:Types.elf_class ->
  ?endian:Types.endian ->
  Types.machine ->
  t

(** Undefined [.dynsym] entries: what the object imports at link time. *)
val imports : t -> dynsym list

(** Defined [.dynsym] entries: what the object offers to the scope. *)
val exports : t -> dynsym list

val binding_to_string : sym_binding -> string
