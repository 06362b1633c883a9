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
