(* Core ELF enumerations and constants.  Only what the migration framework
   needs is modelled, but the on-disk encoding is the real ELF one: images
   built by {!Builder} parse with the standard layout rules. *)

type elf_class = C32 | C64

type endian = LE | BE

(* Machines relevant to the paper's ISA-compatibility determinant
   (x86 vs ppc vs sparc vs itanium, 32- vs 64-bit). *)
type machine =
  | I386
  | X86_64
  | PPC
  | PPC64
  | SPARC
  | SPARCV9
  | IA64

type file_type =
  | ET_EXEC (* fixed-address executable *)
  | ET_DYN  (* shared object or PIE *)

type osabi = SYSV | GNU_LINUX

let class_code = function C32 -> 1 | C64 -> 2

let class_of_code = function 1 -> Some C32 | 2 -> Some C64 | _ -> None

let endian_code = function LE -> 1 | BE -> 2

let endian_of_code = function 1 -> Some LE | 2 -> Some BE | _ -> None

let machine_code = function
  | I386 -> 3
  | SPARC -> 2
  | PPC -> 20
  | PPC64 -> 21
  | SPARCV9 -> 43
  | IA64 -> 50
  | X86_64 -> 62

let machine_of_code = function
  | 3 -> Some I386
  | 2 -> Some SPARC
  | 20 -> Some PPC
  | 21 -> Some PPC64
  | 43 -> Some SPARCV9
  | 50 -> Some IA64
  | 62 -> Some X86_64
  | _ -> None

let file_type_code = function ET_EXEC -> 2 | ET_DYN -> 3

let file_type_of_code = function 2 -> Some ET_EXEC | 3 -> Some ET_DYN | _ -> None

let osabi_code = function SYSV -> 0 | GNU_LINUX -> 3

(* Natural word size and endianness of each machine, used by the builder
   defaults and by the site models. *)
let machine_class = function
  | I386 | PPC | SPARC -> C32
  | X86_64 | PPC64 | SPARCV9 | IA64 -> C64

let machine_endian = function
  | I386 | X86_64 | IA64 -> LE
  | PPC | PPC64 | SPARC | SPARCV9 -> BE

let machine_name = function
  | I386 -> "Intel 80386"
  | X86_64 -> "Advanced Micro Devices X86-64"
  | PPC -> "PowerPC"
  | PPC64 -> "PowerPC64"
  | SPARC -> "Sparc"
  | SPARCV9 -> "Sparc v9"
  | IA64 -> "Intel IA-64"

(* The `uname -p` style processor string for a machine. *)
let machine_uname = function
  | I386 -> "i686"
  | X86_64 -> "x86_64"
  | PPC -> "ppc"
  | PPC64 -> "ppc64"
  | SPARC -> "sparc"
  | SPARCV9 -> "sparc64"
  | IA64 -> "ia64"

let machine_of_uname = function
  | "i686" | "i586" | "i386" -> Some I386
  | "x86_64" -> Some X86_64
  | "ppc" -> Some PPC
  | "ppc64" -> Some PPC64
  | "sparc" -> Some SPARC
  | "sparc64" -> Some SPARCV9
  | "ia64" -> Some IA64
  | _ -> None

let pp_class ppf = function
  | C32 -> Fmt.string ppf "32-bit"
  | C64 -> Fmt.string ppf "64-bit"

(* Conventional dynamic-loader path for each machine: what PT_INTERP
   carries in executables of the era.  A missing loader at a site is a
   real execution-failure channel (e.g. 32-bit x86 binaries on x86-64
   systems without the 32-bit runtime). *)
let default_interp = function
  | X86_64 -> "/lib64/ld-linux-x86-64.so.2"
  | I386 -> "/lib/ld-linux.so.2"
  | PPC64 -> "/lib64/ld64.so.1"
  | PPC -> "/lib/ld.so.1"
  | SPARC -> "/lib/ld-linux.so.2"
  | SPARCV9 -> "/lib64/ld-linux.so.2"
  | IA64 -> "/lib/ld-linux-ia64.so.2"

(* Program header types used by the builder/reader. *)
module Pt = struct
  let load = 1
  let dynamic = 2
  let interp = 3
end

(* Section header types used by the builder/reader. *)
module Sht = struct
  let null = 0
  let progbits = 1
  let strtab = 3
  let dynamic = 6
  let note = 7
  let dynsym = 11
  let gnu_verdef = 0x6ffffffd
  let gnu_verneed = 0x6ffffffe
  let gnu_versym = 0x6fffffff
end

(* Dynamic-section tags. *)
module Dt = struct
  let null = 0
  let needed = 1
  let strtab = 5
  let symtab = 6
  let strsz = 10
  let syment = 11
  let soname = 14
  let rpath = 15
  let runpath = 29
  let versym = 0x6ffffff0
  let verdef = 0x6ffffffc
  let verdefnum = 0x6ffffffd
  let verneed = 0x6ffffffe
  let verneednum = 0x6fffffff
end

(* Symbol bindings (the high nibble of st_info) and the special section
   indices the reader/builder care about. *)
module Stb = struct
  let global = 1
  let weak = 2
end

module Shn = struct
  let undef = 0
  let abs = 0xfff1
end

(* Classic System V ELF hash, used for vna_hash / vd_hash of version
   names. *)
let elf_hash s =
  let h = ref 0 in
  String.iter
    (fun c ->
      h := (!h lsl 4) + Char.code c;
      let g = !h land 0xf0000000 in
      if g <> 0 then h := !h lxor (g lsr 24);
      h := !h land lnot g)
    s;
  !h land 0xffffffff
