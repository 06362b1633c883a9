(* GNU C library model: the historical sequence of glibc releases and the
   symbol-version sets each defines.

   The C-library determinant of the prediction model (paper §III.C) turns
   on two facts captured here: a binary records *symbol version needs*
   (GLIBC_x) for the features it actually uses, and a site's glibc
   defines every symbol version up to its own release.  Compatibility is
   therefore "target glibc >= binary's required version". *)

open Feam_util

(* Release history relevant to the paper's site era (Table II spans
   glibc 2.3.4 through 2.12).  Symbol versions appear in this order. *)
let release_history =
  List.map Version.of_string_exn
    [
      "2.0"; "2.1"; "2.1.1"; "2.1.2"; "2.1.3"; "2.2"; "2.2.1"; "2.2.2";
      "2.2.3"; "2.2.4"; "2.2.5"; "2.2.6"; "2.3"; "2.3.2"; "2.3.3"; "2.3.4";
      "2.4"; "2.5"; "2.6"; "2.7"; "2.8"; "2.9"; "2.10"; "2.11"; "2.11.1";
      "2.12";
    ]

let symbol_prefix = "GLIBC_"

let symbol_of_version v = symbol_prefix ^ Version.to_string v

(* A representative symbol introduced at each release: what a program
   referencing that symbol version actually imports, and what the C
   library of that release exports under it.  Well-known names for the
   releases the corpus exercises; a generic name for the rest. *)
let representative_symbol v =
  match Version.to_string v with
  | "2.0" -> "printf"
  | "2.1" -> "pread64"
  | "2.2" -> "posix_spawn"
  | "2.2.5" -> "__libc_start_main"
  | "2.3" -> "strtold"
  | "2.3.4" -> "__snprintf_chk"
  | "2.4" -> "__stack_chk_fail"
  | "2.5" -> "splice"
  | "2.6" -> "epoll_pwait"
  | "2.7" -> "__isoc99_sscanf"
  | "2.8" -> "timerfd_create"
  | "2.9" -> "pipe2"
  | "2.10" -> "accept4"
  | "2.11" -> "execvpe"
  | "2.12" -> "recvmmsg"
  | s -> "__glibc_feature_" ^ s

let version_of_symbol s =
  if String.starts_with ~prefix:symbol_prefix s then
    Version.of_string (String.sub s 6 (String.length s - 6))
  else None

(* The word-size baseline: 64-bit ABIs never predate the symbol version
   at which their port appeared (x86-64 programs always reference at
   least GLIBC_2.2.5). *)
let baseline ~bits =
  match bits with
  | `B64 -> Version.of_string_exn "2.2.5"
  | `B32 -> Version.of_string_exn "2.0"

(* Symbol versions defined by a glibc release: every historical release
   up to and including it. *)
let defined_symbol_versions glibc =
  release_history
  |> List.filter (fun v -> Version.(v <= glibc))
  |> List.map symbol_of_version

(* Greatest release <= [cap]: the newest symbol set a program built on a
   [cap] system can reference. *)
let newest_release_at_most cap =
  let rec last acc = function
    | [] -> acc
    | v :: rest -> if Version.(v <= cap) then last (Some v) rest else acc
  in
  last None release_history

(* The symbol versions a program references, given the newest glibc
   feature level its code uses ([appetite]) and the glibc it was built
   against ([build]): baseline plus the newest release <= min appetite
   build. *)
let referenced_versions ~bits ~appetite ~build =
  let base = baseline ~bits in
  let cap = Version.min appetite build in
  let top =
    match newest_release_at_most cap with
    | Some v -> v
    | None -> base
  in
  let top = Version.max top base in
  if Version.equal top base then [ symbol_of_version base ]
  else [ symbol_of_version base; symbol_of_version top ]

(* The binary's *required C library version*: the newest version among
   its references (paper §III.C). *)
let required_version versions =
  versions
  |> List.filter_map version_of_symbol
  |> List.fold_left
       (fun acc v -> match acc with None -> Some v | Some a -> Some (Version.max a v))
       None

(* The soname of the C library and its major file name. *)
let libc_soname = Soname.make ~version:[ 6 ] "libc"
let libm_soname = Soname.make ~version:[ 6 ] "libm"
let libpthread_soname = Soname.make ~version:[ 0 ] "libpthread"
let libdl_soname = Soname.make ~version:[ 2 ] "libdl"
let librt_soname = Soname.make ~version:[ 1 ] "librt"
