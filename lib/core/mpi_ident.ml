(* MPI implementation identification from link-level dependencies
   (paper Table I).

   MPI is an interface specification, not a link-level one, so each
   implementation leaves a distinct fingerprint in DT_NEEDED:

     MVAPICH2 : libmpich/libmpichf90 plus libibverbs, libibumad
     Open MPI : libmpi (and libnsl, libutil)
     MPICH2   : libmpich/libmpichf90 and none of the other identifiers *)

open Feam_util
open Feam_mpi

type identification = {
  impl : Impl.t;
  (* Identifier libraries that matched, for the report. *)
  evidence : string list;
  (* Whether Fortran MPI bindings are linked. *)
  fortran_bindings : bool;
}

let base_of name =
  match Soname.of_string name with
  | Some s -> Soname.base s
  | None -> name

(* [identify needed] inspects a DT_NEEDED list. [None] when no MPI
   implementation library is present (a serial binary).  Each name is
   parsed once; the checks below test membership in the parsed bases. *)
let identify needed =
  let bases = List.map base_of needed in
  let has base = List.exists (String.equal base) bases in
  let fortran_bindings =
    has "libmpichf90" || has "libmpi_f77" || has "libmpi_f90" || has "libfmpich"
  in
  if has "libmpi" then
    let evidence =
      List.filter has [ "libmpi"; "libnsl"; "libutil" ]
      |> List.map (fun b -> b ^ ".so")
    in
    Some { impl = Impl.Open_mpi; evidence; fortran_bindings }
  else if has "libmpich" || has "libmpichf90" then
    if has "libibverbs" || has "libibumad" then
      let evidence =
        List.filter has [ "libmpich"; "libmpichf90"; "libibverbs"; "libibumad" ]
        |> List.map (fun b -> b ^ ".so")
      in
      Some { impl = Impl.Mvapich2; evidence; fortran_bindings }
    else
      let evidence =
        List.filter has [ "libmpich"; "libmpichf90" ] |> List.map (fun b -> b ^ ".so")
      in
      Some { impl = Impl.Mpich2; evidence; fortran_bindings }
  else None

(* The rows of paper Table I, for the report and the table bench. *)
let table_rows =
  [
    ("MVAPICH2", "libmpich/libmpichf90, libibverbs, libibumad");
    ("Open MPI", "libnsl, libutil");
    ("MPICH2", "libmpich/libmpichf90 (and not other identifiers)");
  ]
