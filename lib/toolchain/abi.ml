(* Deterministic API-symbol model of the simulated toolchain.

   Every library in the catalog exports a symbol set derived from its
   soname and the *vintage* of the build — a coarse era rank computed
   from the building site's glibc.  Newer builds of a library add
   feature symbols at the same soname major; a binary linked on a newer
   site imports the newest feature symbol its build exported.  This is
   the channel that makes the soname-major heuristic unsound in the
   simulated world: an older site can carry a library that satisfies the
   soname-major check yet lacks a symbol the arriving binary imports —
   exactly the gap the symcheck analysis is built to expose.

   glibc members (libc, libm, libpthread, ...) are modelled separately:
   their exports are well-known names carried at GLIBC_* symbol
   versions, so incompatibilities surface through version binding, in
   agreement with {!Resolve}'s library-level version check. *)

open Feam_util

(* Era rank of a build environment: the number of glibc releases up to
   the build glibc, in coarse steps.  Table II's sites fall into two
   vintages (glibc <= 2.5 -> 4, glibc >= 2.11 -> 6), which gives the
   corpus genuine cross-vintage migrations in both directions. *)
let vintage glibc =
  let rank =
    List.fold_left
      (fun n v -> if Version.(v <= glibc) then n + 1 else n)
      0 Glibc.release_history
  in
  rank / 4

(* "libfftw.so.2" -> "fftw"; falls back to the raw name for strings that
   do not parse as sonames. *)
let prefix_of_name name =
  let base = match Soname.of_string name with Some s -> Soname.base s | None -> name in
  if String.starts_with ~prefix:"lib" base && String.length base > 3 then
    String.sub base 3 (String.length base - 3)
  else base

(* The symbol-name builders below take a library's prefix (see
   [prefix_of_name]) and the build's vintage, which their callers
   compute once. *)

let core_suffixes = [ "_init"; "_run"; "_finalize" ]

let core_symbols p = List.map (fun s -> p ^ s) core_suffixes

let feature_symbol p r = p ^ "_feature_r" ^ string_of_int r

(* Exported names of a catalog library built at [vintage]: the stable
   core plus one feature symbol per vintage step. *)
let exported_symbols ~vintage p =
  let rec features r acc =
    if r < 1 then acc else features (r - 1) (feature_symbol p r :: acc)
  in
  core_symbols p @ features vintage []

(* Names a binary linked against that library at [vintage] imports: the
   core plus the newest feature symbol of the build it linked against. *)
let imported_symbols ~vintage p = core_symbols p @ [ feature_symbol p vintage ]

(* Well-known exports of the glibc member libraries, carried at the
   word-size baseline version (every glibc build defines it). *)
let glibc_member_symbols = function
  | "m" -> [ "sqrt"; "pow"; "log" ]
  | "pthread" -> [ "pthread_create"; "pthread_join"; "pthread_mutex_lock" ]
  | "dl" -> [ "dlopen"; "dlsym"; "dlclose" ]
  | "rt" -> [ "clock_gettime"; "shm_open" ]
  | "util" -> [ "openpty"; "forkpty" ]
  | "nsl" -> [ "yp_bind"; "yp_match" ]
  | p -> [ p ^ "_init" ]

let global name ~defined ~version =
  {
    Feam_elf.Spec.sym_name = name;
    sym_defined = defined;
    sym_binding = Feam_elf.Spec.Global;
    sym_version = version;
  }

(* .dynsym contents of a catalog library built on a [glibc] system.
   glibc members export their well-known names at the baseline GLIBC
   version; other libraries export the vintage-derived API set
   unversioned.  Either way the library imports libc's representative
   symbols at the versions its verneed references. *)
let library_dynsyms ~bits ~glibc ~part_of_glibc ~libc_versions name =
  let exports =
    if part_of_glibc then
      let base = Glibc.symbol_of_version (Glibc.baseline ~bits) in
      List.map
        (fun s -> global s ~defined:true ~version:(Some base))
        (glibc_member_symbols (prefix_of_name name))
    else
      List.map
        (fun s -> global s ~defined:true ~version:None)
        (exported_symbols ~vintage:(vintage glibc) (prefix_of_name name))
  in
  let libc_imports =
    List.map
      (fun v ->
        global (Glibc.representative_symbol v) ~defined:false
          ~version:(Some (Glibc.symbol_of_version v)))
      (List.filter_map Glibc.version_of_symbol libc_versions)
  in
  exports @ libc_imports

(* .dynsym contents of the C library itself: one representative export
   per symbol version its release defines. *)
let libc_dynsyms ~glibc =
  Glibc.defined_symbol_versions glibc
  |> List.filter_map Glibc.version_of_symbol
  |> List.map (fun v ->
         global (Glibc.representative_symbol v) ~defined:true
           ~version:(Some (Glibc.symbol_of_version v)))

(* .dynsym contents of a compiled program: versioned imports of libc's
   representative symbols, the baseline libm/libpthread names, and the
   unversioned API set of every other library it links. *)
let binary_dynsyms ~bits ~glibc ~libc_versions ~needed =
  let libc_imports =
    List.map
      (fun v ->
        global (Glibc.representative_symbol v) ~defined:false
          ~version:(Some (Glibc.symbol_of_version v)))
      (List.filter_map Glibc.version_of_symbol libc_versions)
  in
  let base = Glibc.symbol_of_version (Glibc.baseline ~bits) in
  let vintage = vintage glibc in
  let lib_imports =
    needed
    |> List.concat_map (fun name ->
           match prefix_of_name name with
           | "c" | "ld-linux" -> []
           | "m" -> [ global "sqrt" ~defined:false ~version:(Some base) ]
           | ("pthread" | "dl" | "rt" | "util" | "nsl") as p ->
             (* glibc members: reference their first well-known export
                unversioned, matching what the members define *)
             [
               global
                 (List.hd (glibc_member_symbols p))
                 ~defined:false ~version:None;
             ]
           | p ->
             List.map
               (fun s -> global s ~defined:false ~version:None)
               (imported_symbols ~vintage p))
  in
  libc_imports @ lib_imports
