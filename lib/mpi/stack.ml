(* An MPI stack: the combination of MPI implementation (with version),
   associated compiler, and interconnection network (paper §I, §III.B).
   Stacks are what sites advertise and what binaries were built with. *)

open Feam_util

type t = {
  impl : Impl.t;
  impl_version : Version.t;
  compiler : Compiler.t;
  interconnect : Interconnect.t;
}

type language = C | Fortran

let make ~impl ~impl_version ~compiler ~interconnect =
  { impl; impl_version; compiler; interconnect }

let impl t = t.impl
let impl_version t = t.impl_version
let compiler t = t.compiler
let interconnect t = t.interconnect

let equal a b =
  Impl.equal a.impl b.impl
  && Version.equal a.impl_version b.impl_version
  && Compiler.equal a.compiler b.compiler
  && Interconnect.equal a.interconnect b.interconnect

(* "openmpi-1.4.3-intel" — the slug used for install prefixes and module
   names; real sites' path-naming conventions reveal the stack this way
   (paper §V.B). *)
let slug t =
  Printf.sprintf "%s-%s-%s" (Impl.slug t.impl)
    (Version.to_string t.impl_version)
    (Compiler.family_slug (Compiler.family t.compiler))

let to_string t =
  Printf.sprintf "%s %s (%s, %s)" (Impl.name t.impl)
    (Version.to_string t.impl_version)
    (Compiler.to_string t.compiler)
    (Interconnect.name t.interconnect)

(* MPI shared libraries a program in [language] gets linked against. *)
let mpi_libs t language =
  let core = Impl.core_libs t.impl ~version:t.impl_version in
  match language with
  | C -> core
  | Fortran -> core @ Impl.fortran_libs t.impl ~version:t.impl_version

(* System libraries additionally linked by the wrapper: the Table I
   fingerprints plus the compiler runtime. *)
let system_libs t language =
  let runtime =
    match language with
    | C -> Compiler.c_runtime_libs t.compiler
    | Fortran ->
      Compiler.c_runtime_libs t.compiler
      @ Compiler.fortran_runtime_libs t.compiler
  in
  Impl.extra_system_libs t.impl @ runtime

(* Full dynamic dependency set (excluding libc/libm/libpthread, which the
   toolchain adds for every program). *)
let needed_libs t language = mpi_libs t language @ system_libs t language

(* Compiler wrapper names installed under the stack prefix. *)
let wrapper_names = [ "mpicc"; "mpicxx"; "mpif77"; "mpif90" ]

(* Default launch command (paper §V.C: mpiexec by default, user
   configurable per MPI type). *)
let default_launcher = "mpiexec"
