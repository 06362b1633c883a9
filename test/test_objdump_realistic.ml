(* Robustness of the objdump/readelf parsers against realistic GNU
   binutils output: extra dynamic tags, program/section header noise,
   hex columns, blank lines and trailing content that real tools emit
   but our emulation does not. *)

open Feam_core

(* A transcript shaped like real `objdump -p` output from binutils 2.17
   on a CentOS 5 system, including sections our parser must skip. *)
let realistic_objdump =
  "\n\
   /home/user/npb/bin/bt.A.16:     file format elf64-x86-64\n\n\
   Program Header:\n\
  \    PHDR off    0x0000000000000040 vaddr 0x0000000000400040 paddr 0x0000000000400040 align 2**3\n\
  \         filesz 0x00000000000001f8 memsz 0x00000000000001f8 flags r-x\n\
  \  INTERP off    0x0000000000000238 vaddr 0x0000000000400238 paddr 0x0000000000400238 align 2**0\n\
  \         filesz 0x000000000000001c memsz 0x000000000000001c flags r--\n\
  \    LOAD off    0x0000000000000000 vaddr 0x0000000000400000 paddr 0x0000000000400000 align 2**21\n\n\
   Dynamic Section:\n\
  \  NEEDED               libmpi_f77.so.0\n\
  \  NEEDED               libmpi.so.0\n\
  \  NEEDED               libopen-rte.so.0\n\
  \  NEEDED               libopen-pal.so.0\n\
  \  NEEDED               libnsl.so.1\n\
  \  NEEDED               libutil.so.1\n\
  \  NEEDED               libgfortran.so.1\n\
  \  NEEDED               libm.so.6\n\
  \  NEEDED               libc.so.6\n\
  \  RPATH                /opt/openmpi-1.4-gnu/lib\n\
  \  INIT                 0x0000000000401a18\n\
  \  FINI                 0x0000000000449e38\n\
  \  HASH                 0x0000000000400298\n\
  \  STRTAB               0x0000000000400f70\n\
  \  SYMTAB               0x00000000004004d8\n\
  \  STRSZ                0x0000000000000888\n\
  \  SYMENT               0x0000000000000018\n\
  \  DEBUG                0x0000000000000000\n\
  \  PLTGOT               0x0000000000650568\n\n\
   Version References:\n\
  \  required from libm.so.6:\n\
  \    0x09691a75 0x00 05 GLIBC_2.2.5\n\
  \  required from libc.so.6:\n\
  \    0x09691a75 0x00 04 GLIBC_2.2.5\n\
  \    0x0d696914 0x00 03 GLIBC_2.4\n\n"

let test_realistic_objdump () =
  let info = Result.get_ok (Objdump_parse.parse_objdump_p realistic_objdump) in
  Alcotest.(check string) "format" "elf64-x86-64" info.Objdump_parse.file_format;
  Alcotest.(check int) "nine NEEDED" 9 (List.length info.Objdump_parse.needed);
  Alcotest.(check (option string)) "rpath" (Some "/opt/openmpi-1.4-gnu/lib")
    info.Objdump_parse.rpath;
  Alcotest.(check (option string)) "no soname" None info.Objdump_parse.soname;
  Alcotest.(check (list string)) "libc versions" [ "GLIBC_2.2.5"; "GLIBC_2.4" ]
    (List.assoc "libc.so.6" info.Objdump_parse.verneeds);
  Alcotest.(check (list string)) "libm versions" [ "GLIBC_2.2.5" ]
    (List.assoc "libm.so.6" info.Objdump_parse.verneeds);
  (* a description built from it identifies Open MPI with Fortran *)
  let d =
    Result.get_ok
      (Description.of_dynamic_info ~path:"/home/user/npb/bin/bt.A.16"
         ~provenance:{ Objdump_parse.compiler_banner = None; build_os = None }
         info)
  in
  (match d.Description.mpi with
  | Some ident ->
    Alcotest.(check bool) "ompi" true
      (ident.Mpi_ident.impl = Feam_mpi.Impl.Open_mpi);
    Alcotest.(check bool) "fortran" true ident.Mpi_ident.fortran_bindings
  | None -> Alcotest.fail "not identified");
  Alcotest.(check bool) "required glibc 2.4" true
    (d.Description.required_glibc = Some (Feam_util.Version.of_string_exn "2.4"))

(* Shared-library output with a SONAME and version definitions. *)
let realistic_library_objdump =
  "/usr/lib64/libgfortran.so.1.0.0:     file format elf64-x86-64\n\n\
   Dynamic Section:\n\
  \  NEEDED               libm.so.6\n\
  \  NEEDED               libgcc_s.so.1\n\
  \  NEEDED               libc.so.6\n\
  \  SONAME               libgfortran.so.1\n\
  \  INIT                 0x000000000000dc78\n\n\
   Version definitions:\n\
   1 0x01 0x0865f4e6 libgfortran.so.1\n\
   2 0x00 0x0b792650 GFORTRAN_1.0\n\n\
   Version References:\n\
  \  required from libc.so.6:\n\
  \    0x09691a75 0x00 02 GLIBC_2.2.5\n"

let test_realistic_library () =
  let info = Result.get_ok (Objdump_parse.parse_objdump_p realistic_library_objdump) in
  Alcotest.(check (option string)) "soname" (Some "libgfortran.so.1")
    info.Objdump_parse.soname;
  Alcotest.(check (list string)) "verdefs"
    [ "libgfortran.so.1"; "GFORTRAN_1.0" ]
    info.Objdump_parse.verdefs

(* readelf -p .comment with the real dump format. *)
let realistic_readelf =
  "\nString dump of section '.comment':\n\
  \  [     0]  GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-46)\n\
  \  [    2e]  GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-46)\n\
  \  [    5c]  GCC: (GNU) 4.1.2 20080704 (Red Hat 4.1.2-48)\n\n"

let test_realistic_readelf () =
  let comments = Objdump_parse.parse_readelf_comment realistic_readelf in
  Alcotest.(check int) "three strings" 3 (List.length comments);
  let prov = Objdump_parse.provenance_of_comments comments in
  Alcotest.(check (option string)) "os" (Some "Red Hat") prov.Objdump_parse.build_os;
  Alcotest.(check bool) "compiler" true
    (prov.Objdump_parse.compiler_banner <> None)

(* -- qcheck: emulated objdump -p text parses back to its spec ------------- *)

(* What the parser reports for a spec's verneeds: a version line joins
   every "required from" block of its file name opened so far, so a
   block lists its own versions, then those of every later block of the
   same name.  Stated as the obvious quadratic fold, as a reference. *)
let expected_verneeds (verneeds : Feam_elf.Spec.verneed list) =
  List.fold_left
    (fun acc vn ->
      let file = vn.Feam_elf.Spec.vn_file in
      let acc = acc @ [ (file, []) ] in
      List.fold_left
        (fun acc v ->
          List.map (fun (f, vs) -> if f = file then (f, vs @ [ v ]) else (f, vs)) acc)
        acc vn.Feam_elf.Spec.vn_versions)
    [] verneeds

(* Real binutils align with spaces, but nothing stops a tool from using
   tabs: retab every line except the format line, the section headers
   and "required from" (whose spaces are part of what the parser
   matches). *)
let retab text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line ->
         let t = String.trim line in
         if
           i = 0
           || List.mem t [ "Dynamic Section:"; "Version References:"; "Version definitions:" ]
           || String.starts_with ~prefix:"required from " t
         then line
         else String.map (fun c -> if c = ' ' then '\t' else c) line)
  |> String.concat "\n"

let gen_objdump_case =
  QCheck.Gen.(
    let name = oneofl [ "libmpi.so.0"; "libm.so.6"; "libc.so.6"; "libfoo.so.2" ] in
    let version = map (Printf.sprintf "V_%d") (int_range 1 6) in
    let verneed =
      map2
        (fun file versions -> { Feam_elf.Spec.vn_file = file; vn_versions = versions })
        name
        (list_size (int_range 1 3) version)
    in
    let path = oneofl [ "/usr/lib64/mpi"; "/usr/local/lib:/usr/lib"; "$ORIGIN/../lib" ] in
    list_size (int_range 0 5) name >>= fun needed ->
    opt name >>= fun soname ->
    opt path >>= fun rpath ->
    opt path >>= fun runpath ->
    list_size (int_range 0 5) verneed >>= fun verneeds ->
    list_size (int_range 0 3) (oneofl [ "libfoo.so.2"; "FOO_1.0"; "FOO_2.0" ]) >>= fun verdefs ->
    bool >>= fun interp ->
    bool >>= fun tabs ->
    return
      ( Feam_elf.Spec.make ~needed ?soname ?rpath ?runpath ~verneeds ~verdefs
          ?interp:(if interp then Some "/lib64/ld-linux-x86-64.so.2" else None)
          Feam_elf.Types.X86_64,
        tabs ))

let objdump_site = lazy (fst (Fixtures.small_site ()))

let prop_objdump_roundtrip =
  QCheck.Test.make ~name:"objdump -p text parses back to its spec" ~count:300
    (QCheck.make gen_objdump_case) (fun (spec, tabs) ->
      let site = Lazy.force objdump_site in
      let path = "/home/user/qc/app" in
      Feam_sysmodel.Vfs.add (Feam_sysmodel.Site.vfs site) path
        (Feam_sysmodel.Vfs.Elf (Feam_elf.Builder.build spec));
      let text =
        match Feam_sysmodel.Utilities.objdump_p site path with
        | Ok t -> if tabs then retab t else t
        | Error e -> QCheck.Test.fail_report (Feam_sysmodel.Utilities.error_to_string e)
      in
      match Objdump_parse.parse_objdump_p text with
      | Error e -> QCheck.Test.fail_report e
      | Ok info ->
        info.Objdump_parse.file_format = "elf64-x86-64"
        && info.Objdump_parse.needed = spec.Feam_elf.Spec.needed
        && info.Objdump_parse.soname = spec.Feam_elf.Spec.soname
        && info.Objdump_parse.rpath = spec.Feam_elf.Spec.rpath
        && info.Objdump_parse.runpath = spec.Feam_elf.Spec.runpath
        && info.Objdump_parse.verneeds = expected_verneeds spec.Feam_elf.Spec.verneeds
        && info.Objdump_parse.verdefs = spec.Feam_elf.Spec.verdefs)

(* Two blocks for one file: the first block's entry also gets the second
   block's versions, the second only its own. *)
let test_repeated_verneed_blocks () =
  let text =
    "app:     file format elf64-x86-64\n\n\
     Version References:\n\
    \  required from libc.so.6:\n\
    \    0x09691a75 0x00 02 GLIBC_2.2.5\n\
    \  required from libm.so.6:\n\
    \    0x09691a75 0x00 03 GLIBC_2.2.5\n\
    \  required from libc.so.6:\n\
    \t0x0d696914\t0x00\t04\tGLIBC_2.4\n"
  in
  let info = Result.get_ok (Objdump_parse.parse_objdump_p text) in
  Alcotest.(check (list (pair string (list string)))) "verneeds"
    [
      ("libc.so.6", [ "GLIBC_2.2.5"; "GLIBC_2.4" ]);
      ("libm.so.6", [ "GLIBC_2.2.5" ]);
      ("libc.so.6", [ "GLIBC_2.4" ]);
    ]
    info.Objdump_parse.verneeds

let suite =
  ( "objdump-realistic",
    [
      Alcotest.test_case "realistic executable output" `Quick test_realistic_objdump;
      Alcotest.test_case "realistic library output" `Quick test_realistic_library;
      Alcotest.test_case "realistic readelf output" `Quick test_realistic_readelf;
      Alcotest.test_case "repeated verneed blocks" `Quick test_repeated_verneed_blocks;
      QCheck_alcotest.to_alcotest prop_objdump_roundtrip;
    ] )
