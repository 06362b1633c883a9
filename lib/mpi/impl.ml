(* The three dominant open-source MPI implementations of the paper's era.
   MPI is an interface specification, not a link-level one: each
   implementation produces different link-level dependencies, which is
   what the identification scheme (paper Table I) exploits. *)

open Feam_util

type t = Open_mpi | Mpich2 | Mvapich2

let name = function
  | Open_mpi -> "Open MPI"
  | Mpich2 -> "MPICH2"
  | Mvapich2 -> "MVAPICH2"

(* Short identifier used in module names and install prefixes,
   e.g. "openmpi-1.4.3-intel". *)
let slug = function
  | Open_mpi -> "openmpi"
  | Mpich2 -> "mpich2"
  | Mvapich2 -> "mvapich2"

let of_slug = function
  | "openmpi" -> Some Open_mpi
  | "mpich2" -> Some Mpich2
  | "mvapich2" -> Some Mvapich2
  | _ -> None

let equal (a : t) (b : t) = a = b

(* Core C-binding MPI libraries the implementation's compiler wrapper
   links into every program.  Open MPI 1.3/1.4 exposes libmpi.so.0 plus
   its runtime layers; MPICH2 and MVAPICH2 both descend from MPICH and
   expose libmpich — they are distinguished by MVAPICH2's InfiniBand
   user-space libraries (see {!extra_system_libs}). *)
let core_libs impl ~version =
  let mpi_major =
    (* Sonames of this era: Open MPI 1.3/1.4 -> libmpi.so.0;
       MPICH2/MVAPICH2 1.x -> libmpich.so.1. *)
    match impl with Open_mpi -> 0 | Mpich2 | Mvapich2 -> 1
  in
  ignore version;
  match impl with
  | Open_mpi ->
    [
      Soname.make ~version:[ mpi_major ] "libmpi";
      Soname.make ~version:[ mpi_major ] "libopen-rte";
      Soname.make ~version:[ mpi_major ] "libopen-pal";
    ]
  | Mpich2 | Mvapich2 -> [ Soname.make ~version:[ mpi_major ] "libmpich" ]

(* Additional MPI libraries pulled in by Fortran programs. *)
let fortran_libs impl ~version =
  ignore version;
  match impl with
  | Open_mpi ->
    [
      Soname.make ~version:[ 0 ] "libmpi_f77";
      Soname.make ~version:[ 0 ] "libmpi_f90";
    ]
  | Mpich2 | Mvapich2 -> [ Soname.make ~version:[ 1 ] "libmpichf90" ]

(* System-supplied shared libraries that the implementation's wrapper
   additionally links: the link-level fingerprints of paper Table I.
   Open MPI pulls in libnsl/libutil; MVAPICH2 pulls in the InfiniBand
   user-space stack. *)
let extra_system_libs = function
  | Open_mpi ->
    [ Soname.make ~version:[ 1 ] "libnsl"; Soname.make ~version:[ 1 ] "libutil" ]
  | Mpich2 -> []
  | Mvapich2 ->
    [
      Soname.make ~version:[ 1 ] "libibverbs";
      Soname.make ~version:[ 3 ] "libibumad";
      Soname.make ~version:[ 1 ] "librdmacm";
    ]

(* [compatible ~binary ~site] — the paper's MPI-implementation
   compatibility rule (§III.B): same implementation type only; versions
   are NOT trusted because no backwards-compatibility guarantee was found
   between versions of the same implementation. *)
let compatible ~binary ~site = equal binary site
