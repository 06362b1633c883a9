(* Focused unit tests for the resolution model: recursive vetting,
   dependency chains, cycles, and staging mechanics (paper §IV). *)

open Feam_util
open Feam_sysmodel
open Feam_core

let v = Version.of_string_exn

let config = Config.default

(* Hand-build a library copy with the given dependencies/requirements. *)
let make_copy ?(machine = Feam_elf.Types.X86_64) ?(needed = [ "libc.so.6" ])
    ?(glibc_req = "2.3.4") name =
  let soname = name in
  let spec =
    Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN ~soname ~needed
      ~verneeds:
        [
          {
            Feam_elf.Spec.vn_file = "libc.so.6";
            vn_versions = [ "GLIBC_" ^ glibc_req ];
          };
        ]
      machine
  in
  let bytes = Feam_elf.Builder.build spec in
  let description =
    {
      Description.path = "/origin/" ^ name;
      file_format = "elf64-x86-64";
      machine;
      elf_class = Feam_elf.Types.machine_class machine;
      soname = Soname.of_string name;
      needed;
      rpath = None;
      runpath = None;
      verneeds = [ ("libc.so.6", [ "GLIBC_" ^ glibc_req ]) ];
      required_glibc = Some (v glibc_req);
      mpi = None;
      provenance = { Objdump_parse.compiler_banner = None; build_os = None };
    }
  in
  {
    Bdc.copy_request = name;
    copy_origin_path = "/origin/" ^ name;
    copy_image = Feam_elf.Reader.image bytes;
    copy_declared_size = 4096;
    copy_description = description;
  }

let make_bundle copies =
  {
    Bundle.created_at = "home";
    binary_description =
      (make_copy "libdummy.so.1").Bdc.copy_description;
    binary_image = None;
    binary_declared_size = 0;
    copies;
    unlocatable = [];
    probes = [];
    source_discovery =
      {
        Discovery.env_type = `Guaranteed;
        machine = Some Feam_elf.Types.X86_64;
        elf_class = Some Feam_elf.Types.C64;
        os = None;
        kernel = None;
        glibc = Some (v "2.5");
        stacks = [];
        current_stack = None;
      };
  }

let resolve site env bundle missing =
  Resolve_model.resolve config site env ~bundle ~target_glibc:(Some (v "2.5"))
    ~binary_machine:Feam_elf.Types.X86_64 ~binary_class:Feam_elf.Types.C64
    ~missing

let test_simple_staging () =
  let site, _ = Fixtures.small_site () in
  let bundle = make_bundle [ make_copy "libextra.so.1" ] in
  let r = resolve site (Site.base_env site) bundle [ "libextra.so.1" ] in
  Alcotest.(check int) "staged one" 1 (List.length r.Resolve_model.staged);
  Alcotest.(check (list string)) "no failures" []
    (List.map fst r.Resolve_model.failed);
  Alcotest.(check bool) "env exposes staging" true
    (List.mem config.Config.staging_dir (Env.ld_library_path r.Resolve_model.env))

let test_no_copy_available () =
  let site, _ = Fixtures.small_site () in
  let bundle = make_bundle [] in
  let r = resolve site (Site.base_env site) bundle [ "libgone.so.1" ] in
  (match r.Resolve_model.failed with
  | [ ("libgone.so.1", Resolve_model.No_copy_available) ] -> ()
  | _ -> Alcotest.fail "expected No_copy_available");
  Alcotest.(check bool) "env untouched" false
    (List.mem config.Config.staging_dir (Env.ld_library_path r.Resolve_model.env))

let test_wrong_isa_copy () =
  let site, _ = Fixtures.small_site () in
  let bundle = make_bundle [ make_copy ~machine:Feam_elf.Types.PPC64 "libextra.so.1" ] in
  let r = resolve site (Site.base_env site) bundle [ "libextra.so.1" ] in
  match r.Resolve_model.failed with
  | [ (_, Resolve_model.Copy_wrong_isa) ] -> ()
  | _ -> Alcotest.fail "expected Copy_wrong_isa"

let test_clib_incompatible_copy () =
  let site, _ = Fixtures.small_site () in
  let bundle = make_bundle [ make_copy ~glibc_req:"2.7" "libextra.so.1" ] in
  let r = resolve site (Site.base_env site) bundle [ "libextra.so.1" ] in
  match r.Resolve_model.failed with
  | [ (_, Resolve_model.Copy_clib_incompatible { copy_requires; _ }) ] ->
    Alcotest.check Fixtures.version "requires" (v "2.7") copy_requires
  | _ -> Alcotest.fail "expected Copy_clib_incompatible"

let test_recursive_dependency_staged () =
  (* libA needs libB; both absent at the target; both in the bundle:
     staging libA must pull in libB (paper §IV's recursion) *)
  let site, _ = Fixtures.small_site () in
  let liba = make_copy ~needed:[ "libB.so.1"; "libc.so.6" ] "libA.so.1" in
  let libb = make_copy "libB.so.1" in
  let bundle = make_bundle [ liba; libb ] in
  let r = resolve site (Site.base_env site) bundle [ "libA.so.1" ] in
  let staged = List.map fst r.Resolve_model.staged in
  Alcotest.(check bool) "libA staged" true (List.mem "libA.so.1" staged);
  Alcotest.(check bool) "libB staged too" true (List.mem "libB.so.1" staged)

let test_recursive_dependency_unresolvable () =
  let site, _ = Fixtures.small_site () in
  let liba = make_copy ~needed:[ "libB.so.1"; "libc.so.6" ] "libA.so.1" in
  (* libB missing from the bundle and from the site *)
  let bundle = make_bundle [ liba ] in
  let r = resolve site (Site.base_env site) bundle [ "libA.so.1" ] in
  match r.Resolve_model.failed with
  | [ (_, Resolve_model.Copy_dependency_unresolvable "libB.so.1") ] -> ()
  | _ -> Alcotest.fail "expected dependency rejection"

let test_cyclic_copies_resolve () =
  (* libX and libY depend on each other: the optimistic cycle rule stages
     both rather than looping *)
  let site, _ = Fixtures.small_site () in
  let libx = make_copy ~needed:[ "libY.so.1"; "libc.so.6" ] "libX.so.1" in
  let liby = make_copy ~needed:[ "libX.so.1"; "libc.so.6" ] "libY.so.1" in
  let bundle = make_bundle [ libx; liby ] in
  let r = resolve site (Site.base_env site) bundle [ "libX.so.1"; "libY.so.1" ] in
  Alcotest.(check int) "both staged" 2 (List.length r.Resolve_model.staged);
  Alcotest.(check (list string)) "no failures" [] (List.map fst r.Resolve_model.failed)

let test_present_dependency_not_staged () =
  (* a copy whose dependency already exists at the target must not stage
     that dependency *)
  let site, _ = Fixtures.small_site () in
  let liba = make_copy ~needed:[ "libz.so.1"; "libc.so.6" ] "libA.so.1" in
  let libz_copy = make_copy "libz.so.1" in
  let bundle = make_bundle [ liba; libz_copy ] in
  let r = resolve site (Site.base_env site) bundle [ "libA.so.1" ] in
  let staged = List.map fst r.Resolve_model.staged in
  Alcotest.(check bool) "libA staged" true (List.mem "libA.so.1" staged);
  Alcotest.(check bool) "site libz untouched" false (List.mem "libz.so.1" staged)

let test_soname_compat_satisfies_request () =
  (* a copy whose soname shares base+major satisfies a differently-
     suffixed request (§III.D convention) *)
  let site, _ = Fixtures.small_site () in
  let copy = make_copy "libq.so.2.0.1" in
  let bundle = make_bundle [ copy ] in
  Alcotest.(check int) "found by soname rule" 1
    (List.length (Bundle.copies_for bundle "libq.so.2"));
  ignore site

let suite =
  ( "resolution-model",
    [
      Alcotest.test_case "simple staging" `Quick test_simple_staging;
      Alcotest.test_case "no copy available" `Quick test_no_copy_available;
      Alcotest.test_case "wrong ISA copy" `Quick test_wrong_isa_copy;
      Alcotest.test_case "C-library incompatible copy" `Quick test_clib_incompatible_copy;
      Alcotest.test_case "recursive dependency staged" `Quick test_recursive_dependency_staged;
      Alcotest.test_case "recursive dependency unresolvable" `Quick
        test_recursive_dependency_unresolvable;
      Alcotest.test_case "cyclic copies resolve" `Quick test_cyclic_copies_resolve;
      Alcotest.test_case "present dependency not staged" `Quick
        test_present_dependency_not_staged;
      Alcotest.test_case "soname compatibility" `Quick test_soname_compat_satisfies_request;
    ] )
