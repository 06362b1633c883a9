(** Core ELF enumerations and constants.  Only what the migration
    framework needs is modelled, but the on-disk encoding is the real ELF
    one. *)

type elf_class = C32 | C64
type endian = LE | BE

(** Machines relevant to the ISA-compatibility determinant. *)
type machine = I386 | X86_64 | PPC | PPC64 | SPARC | SPARCV9 | IA64

type file_type = ET_EXEC | ET_DYN
type osabi = SYSV | GNU_LINUX

val class_code : elf_class -> int
val class_of_code : int -> elf_class option
val endian_code : endian -> int
val endian_of_code : int -> endian option
val machine_code : machine -> int
val machine_of_code : int -> machine option
val file_type_code : file_type -> int
val file_type_of_code : int -> file_type option
val osabi_code : osabi -> int

(** Natural word size of a machine. *)
val machine_class : machine -> elf_class

(** Natural endianness of a machine. *)
val machine_endian : machine -> endian

(** The descriptive name objdump/file print ("Advanced Micro Devices
    X86-64"). *)
val machine_name : machine -> string

(** The `uname -p` style processor string. *)
val machine_uname : machine -> string

val machine_of_uname : string -> machine option

(** Conventional PT_INTERP dynamic-loader path per machine. *)
val default_interp : machine -> string

val pp_class : elf_class Fmt.t

(** Program header type codes. *)
module Pt : sig
  val load : int
  val dynamic : int
  val interp : int
end

(** Section header type codes. *)
module Sht : sig
  val null : int
  val progbits : int
  val strtab : int
  val dynamic : int
  val note : int
  val dynsym : int
  val gnu_verdef : int
  val gnu_verneed : int
  val gnu_versym : int
end

(** Dynamic-section tags. *)
module Dt : sig
  val null : int
  val needed : int
  val strtab : int
  val symtab : int
  val strsz : int
  val syment : int
  val soname : int
  val rpath : int
  val runpath : int
  val versym : int
  val verdef : int
  val verdefnum : int
  val verneed : int
  val verneednum : int
end

(** Symbol binding codes (the high nibble of st_info). *)
module Stb : sig
  val global : int
  val weak : int
end

(** Special section indices. *)
module Shn : sig
  val undef : int
  val abs : int
end

(** Classic System V ELF hash (vna_hash / vd_hash of version names). *)
val elf_hash : string -> int
