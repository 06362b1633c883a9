(* High-level description of an ELF object: exactly the information channel
   the migration framework reads through objdump/readelf.  {!Builder} turns
   a spec into real ELF bytes; {!Reader} recovers a spec from bytes. *)

(* One "Version References" block: versions required from one shared
   object, e.g. GLIBC_2.2.5 and GLIBC_2.3.4 required from libc.so.6. *)
type verneed = {
  vn_file : string;          (* soname of the supplying object *)
  vn_versions : string list; (* version names required from it *)
}

(* Dynamic-symbol binding: the high nibble of st_info.  Local symbols
   never reach .dynsym in practice, so only the two external bindings
   are modelled. *)
type sym_binding = Global | Weak

(* One .dynsym entry, with its .gnu.version association already resolved
   to a version name (imports bind to a verneed version, exports to a
   verdef; [None] means unversioned). *)
type dynsym = {
  sym_name : string;
  sym_defined : bool;            (* st_shndx <> SHN_UNDEF *)
  sym_binding : sym_binding;
  sym_version : string option;
}

type t = {
  elf_class : Types.elf_class;
  endian : Types.endian;
  machine : Types.machine;
  file_type : Types.file_type;
  soname : string option;    (* DT_SONAME; present when the object is a shared library *)
  needed : string list;      (* DT_NEEDED entries, link order *)
  rpath : string option;     (* DT_RPATH *)
  runpath : string option;   (* DT_RUNPATH *)
  verneeds : verneed list;   (* .gnu.version_r *)
  verdefs : string list;     (* .gnu.version_d: version names defined by the object *)
  dynsyms : dynsym list;     (* .dynsym entries (the index-0 null entry excluded) *)
  comments : string list;    (* .comment: toolchain provenance strings *)
  abi_note : (int * int * int) option; (* .note.ABI-tag: minimum kernel *)
  interp : string option;    (* PT_INTERP: the dynamic loader path *)
}

let make ?(file_type = Types.ET_EXEC) ?soname ?(needed = []) ?rpath ?runpath
    ?(verneeds = []) ?(verdefs = []) ?(dynsyms = []) ?(comments = [])
    ?abi_note ?interp ?elf_class ?endian machine =
  let elf_class =
    match elf_class with Some c -> c | None -> Types.machine_class machine
  in
  let endian =
    match endian with Some e -> e | None -> Types.machine_endian machine
  in
  {
    elf_class;
    endian;
    machine;
    file_type;
    soname;
    needed;
    rpath;
    runpath;
    verneeds;
    verdefs;
    dynsyms;
    comments;
    abi_note;
    interp;
  }

(* Undefined entries: what the object imports at link time. *)
let imports t = List.filter (fun s -> not s.sym_defined) t.dynsyms

(* Defined entries: what the object offers to the link scope. *)
let exports t = List.filter (fun s -> s.sym_defined) t.dynsyms

let binding_to_string = function Global -> "GLOBAL" | Weak -> "WEAK"

let pp_verneed ppf vn =
  Fmt.pf ppf "@[<h>%s: %a@]" vn.vn_file
    Fmt.(list ~sep:(any ", ") string)
    vn.vn_versions

let pp_dynsym ppf s =
  Fmt.pf ppf "%s%s %s%s"
    (if s.sym_defined then "" else "U ")
    (binding_to_string s.sym_binding)
    s.sym_name
    (match s.sym_version with Some v -> "@" ^ v | None -> "")

let pp ppf t =
  Fmt.pf ppf
    "@[<v>class: %a@ endian: %a@ machine: %a@ type: %a@ soname: %a@ needed: \
     %a@ rpath: %a@ runpath: %a@ verneeds: %a@ verdefs: %a@ dynsyms: %a@ \
     comments: %a@]"
    Types.pp_class t.elf_class Types.pp_endian t.endian Types.pp_machine
    t.machine Types.pp_file_type t.file_type
    Fmt.(option ~none:(any "-") string)
    t.soname
    Fmt.(list ~sep:(any ", ") string)
    t.needed
    Fmt.(option ~none:(any "-") string)
    t.rpath
    Fmt.(option ~none:(any "-") string)
    t.runpath
    Fmt.(list ~sep:(any "; ") pp_verneed)
    t.verneeds
    Fmt.(list ~sep:(any ", ") string)
    t.verdefs
    Fmt.(list ~sep:(any "; ") pp_dynsym)
    t.dynsyms
    Fmt.(list ~sep:(any " | ") string)
    t.comments
