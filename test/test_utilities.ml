(* Tests for the Unix-utility emulations: objdump, readelf, file, uname,
   locate/find, glibc identification — including unavailable-tool
   behaviour, which drives FEAM's fallback paths. *)

open Feam_util
open Feam_sysmodel

let compiled () =
  let site, installs = Fixtures.small_site () in
  let path, install = Fixtures.compiled_binary site installs in
  (site, installs, path, install)

let test_objdump_format_line () =
  let site, _, path, _ = compiled () in
  let out = Fixtures.run_exn (Result.map_error Utilities.error_to_string
    (Utilities.objdump_p site path)) in
  Alcotest.(check bool) "format line" true
    (Str_split.contains ~sub:"file format elf64-x86-64" out);
  Alcotest.(check bool) "dynamic section" true
    (Str_split.contains ~sub:"Dynamic Section:" out);
  Alcotest.(check bool) "NEEDED libmpi" true
    (Str_split.contains ~sub:"NEEDED               libmpi.so.0" out);
  Alcotest.(check bool) "version refs" true
    (Str_split.contains ~sub:"required from libc.so.6:" out)

let test_objdump_unavailable () =
  let site, installs = Fixtures.small_site ~tools:({ Tools.full with Tools.objdump = false }) () in
  let path, _ = Fixtures.compiled_binary site installs in
  match Utilities.objdump_p site path with
  | Error (`Tool_unavailable "objdump") -> ()
  | _ -> Alcotest.fail "expected tool unavailable"

let test_objdump_missing_file () =
  let site, _ = Fixtures.small_site () in
  match Utilities.objdump_p site "/no/such/file" with
  | Error (`No_such_file _) -> ()
  | _ -> Alcotest.fail "expected no such file"

let test_objdump_not_elf () =
  let site, _ = Fixtures.small_site () in
  Vfs.add (Site.vfs site) "/home/user/script.sh" (Vfs.Script "#!/bin/sh\n");
  match Utilities.objdump_p site "/home/user/script.sh" with
  | Error (`Not_elf _) -> ()
  | _ -> Alcotest.fail "expected not elf"

let test_readelf_comment () =
  let site, _, path, _ = compiled () in
  match Utilities.readelf_comment site path with
  | Ok out ->
    Alcotest.(check bool) "dump header" true
      (Str_split.contains ~sub:"String dump of section '.comment'" out);
    Alcotest.(check bool) "compiler string" true (Str_split.contains ~sub:"GCC" out)
  | Error e -> Alcotest.failf "readelf failed: %s" (Utilities.error_to_string e)

let test_file_cmd () =
  let site, _, path, _ = compiled () in
  let out = Result.get_ok (Utilities.file_cmd site path) in
  Alcotest.(check bool) "elf 64" true (Str_split.contains ~sub:"ELF 64-bit LSB executable" out);
  Alcotest.(check bool) "machine" true
    (Str_split.contains ~sub:"Advanced Micro Devices X86-64" out);
  Vfs.add (Site.vfs site) "/t.txt" (Vfs.Text "hi");
  let out = Result.get_ok (Utilities.file_cmd site "/t.txt") in
  Alcotest.(check bool) "text" true (Str_split.contains ~sub:"ASCII text" out)

let test_uname () =
  let site, _ = Fixtures.small_site () in
  Alcotest.(check string) "x86_64" "x86_64" (Result.get_ok (Utilities.uname_p site));
  let ppc, _ = Fixtures.ppc_site () in
  Alcotest.(check string) "ppc64" "ppc64" (Result.get_ok (Utilities.uname_p ppc))

let test_etc_release () =
  let site, _ = Fixtures.small_site () in
  match Utilities.etc_release site with
  | (path, body) :: _ ->
    Alcotest.(check string) "path" "/etc/redhat-release" path;
    Alcotest.(check bool) "body" true (Str_split.contains ~sub:"CentOS" body)
  | [] -> Alcotest.fail "no release file"

let test_locate_and_find () =
  let site, _ = Fixtures.small_site () in
  (match Utilities.locate site "libmpi.so" with
  | Ok paths ->
    Alcotest.(check bool) "locate finds libmpi" true
      (List.exists (fun p -> Vfs.basename p = "libmpi.so.0") paths)
  | Error _ -> Alcotest.fail "locate failed");
  match Utilities.find_in_dirs site [ "/lib64" ] "libm.so" with
  | Ok paths ->
    Alcotest.(check bool) "find finds libm" true
      (List.exists (fun p -> p = "/lib64/libm.so.6") paths)
  | Error _ -> Alcotest.fail "find failed"

let test_locate_unavailable () =
  let site, _ = Fixtures.small_site ~tools:({ Tools.full with Tools.locate = false }) () in
  match Utilities.locate site "libmpi" with
  | Error (`Tool_unavailable "locate") -> ()
  | _ -> Alcotest.fail "expected locate unavailable"

let test_glibc_discovery_channels () =
  let site, _ = Fixtures.small_site ~glibc:"2.5" () in
  (match Utilities.find_libc site with
  | Some path -> Alcotest.(check string) "libc path" "/lib64/libc.so.6" path
  | None -> Alcotest.fail "libc not found");
  let banner = Utilities.glibc_banner site in
  Alcotest.(check bool) "banner version" true (Str_split.contains ~sub:"version 2.5" banner)

let test_clock_charging () =
  let site, _, path, _ = compiled () in
  let clock = Sim_clock.create () in
  Effects.with_clock clock (fun () ->
      ignore (Utilities.objdump_p site path);
      ignore (Utilities.locate site "libm"));
  Alcotest.(check bool) "charged" true (Sim_clock.elapsed clock > 0.0)

let suite =
  ( "utilities",
    [
      Alcotest.test_case "objdump -p output" `Quick test_objdump_format_line;
      Alcotest.test_case "objdump unavailable" `Quick test_objdump_unavailable;
      Alcotest.test_case "objdump missing file" `Quick test_objdump_missing_file;
      Alcotest.test_case "objdump non-ELF" `Quick test_objdump_not_elf;
      Alcotest.test_case "readelf comment" `Quick test_readelf_comment;
      Alcotest.test_case "file(1)" `Quick test_file_cmd;
      Alcotest.test_case "uname -p" `Quick test_uname;
      Alcotest.test_case "/etc/*release" `Quick test_etc_release;
      Alcotest.test_case "locate and find" `Quick test_locate_and_find;
      Alcotest.test_case "locate unavailable" `Quick test_locate_unavailable;
      Alcotest.test_case "glibc channels" `Quick test_glibc_discovery_channels;
      Alcotest.test_case "clock charging" `Quick test_clock_charging;
    ] )
