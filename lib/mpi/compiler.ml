(* Compiler families associated with MPI stacks.  Matching the associated
   compiler matters (paper §III.B) because it determines which runtime
   shared libraries a binary is dynamically linked against. *)

open Feam_util

type family = Gnu | Intel | Pgi

type t = { family : family; version : Version.t }

let make family version = { family; version }

let family t = t.family
let version t = t.version

let family_name = function Gnu -> "GNU" | Intel -> "Intel" | Pgi -> "PGI"

let family_slug = function Gnu -> "gnu" | Intel -> "intel" | Pgi -> "pgi"

let family_of_slug = function
  | "gnu" | "gcc" -> Some Gnu
  | "intel" -> Some Intel
  | "pgi" -> Some Pgi
  | _ -> None

let family_equal (a : family) (b : family) = a = b

let equal a b = family_equal a.family b.family && Version.equal a.version b.version

(* C-side runtime libraries every binary built by this compiler links. *)
let c_runtime_libs t =
  match t.family with
  | Gnu -> [ Soname.make ~version:[ 1 ] "libgcc_s" ]
  | Intel ->
    [
      Soname.make "libimf";
      Soname.make "libsvml";
      Soname.make ~version:[ 5 ] "libintlc";
    ]
  | Pgi -> [ Soname.make "libpgc" ]

(* Fortran runtime libraries.  The GNU Fortran runtime soname changed
   across GCC releases, which is one real-world source of missing-library
   failures when migrating between sites with different GCC versions. *)
let fortran_runtime_libs t =
  match t.family with
  | Gnu ->
    let gfortran_major =
      let v = t.version in
      if Version.(v < of_ints [ 4 ]) then (* g77 era *) -1
      else if Version.(v < of_ints [ 4; 4 ]) then 1
      else 3
    in
    if gfortran_major < 0 then [ Soname.make ~version:[ 0 ] "libg2c" ]
    else [ Soname.make ~version:[ gfortran_major ] "libgfortran" ]
  | Intel ->
    [
      Soname.make ~version:[ 5 ] "libifcore";
      Soname.make ~version:[ 5 ] "libifport";
    ]
  | Pgi -> [ Soname.make "libpgf90"; Soname.make "libpgf90rtl" ]

(* The .comment string the compiler embeds in objects it produces. *)
let comment_string t =
  match t.family with
  | Gnu -> Printf.sprintf "GCC: (GNU) %s" (Version.to_string t.version)
  | Intel ->
    Printf.sprintf "Intel(R) C++ Compiler for applications, Version %s"
      (Version.to_string t.version)
  | Pgi -> Printf.sprintf "PGI Compilers: pgcc %s" (Version.to_string t.version)

let to_string t =
  Printf.sprintf "%s %s" (family_name t.family) (Version.to_string t.version)
