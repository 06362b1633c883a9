(* Tests for the toolchain: glibc model, library catalog, provisioning
   and the compile simulator. *)

open Feam_util
open Feam_sysmodel
open Feam_toolchain

let v = Version.of_string_exn

(* -- Glibc ----------------------------------------------------------------- *)

let test_symbol_roundtrip () =
  Alcotest.(check string) "symbol" "GLIBC_2.3.4" (Glibc.symbol_of_version (v "2.3.4"));
  Alcotest.(check bool) "parse" true
    (Glibc.version_of_symbol "GLIBC_2.3.4" = Some (v "2.3.4"));
  Alcotest.(check bool) "reject" true (Glibc.version_of_symbol "FOO_1.0" = None)

let test_defined_versions () =
  let defs = Glibc.defined_symbol_versions (v "2.3.4") in
  Alcotest.(check bool) "has 2.2.5" true (List.mem "GLIBC_2.2.5" defs);
  Alcotest.(check bool) "has 2.3.4" true (List.mem "GLIBC_2.3.4" defs);
  Alcotest.(check bool) "lacks 2.4" false (List.mem "GLIBC_2.4" defs)

let test_provides () =
  (* what a release's libc.so.6 defines *)
  let provides ~glibc symbol = List.mem symbol (Glibc.defined_symbol_versions glibc) in
  Alcotest.(check bool) "newer provides older" true
    (provides ~glibc:(v "2.12") "GLIBC_2.5");
  Alcotest.(check bool) "older lacks newer" false
    (provides ~glibc:(v "2.3.4") "GLIBC_2.5");
  Alcotest.(check bool) "private only local" false
    (provides ~glibc:(v "2.12") "FOO_1.0")

let test_referenced_versions () =
  (* baseline only when the appetite is below it *)
  Alcotest.(check (list string)) "baseline" [ "GLIBC_2.2.5" ]
    (Glibc.referenced_versions ~bits:`B64 ~appetite:(v "2.0") ~build:(v "2.12"));
  (* appetite capped by build glibc *)
  Alcotest.(check (list string)) "capped by build"
    [ "GLIBC_2.2.5"; "GLIBC_2.5" ]
    (Glibc.referenced_versions ~bits:`B64 ~appetite:(v "2.7") ~build:(v "2.5"));
  (* full appetite on a new system *)
  Alcotest.(check (list string)) "appetite wins"
    [ "GLIBC_2.2.5"; "GLIBC_2.7" ]
    (Glibc.referenced_versions ~bits:`B64 ~appetite:(v "2.7") ~build:(v "2.12"));
  (* 32-bit baseline is 2.0 *)
  Alcotest.(check (list string)) "32-bit baseline" [ "GLIBC_2.0" ]
    (Glibc.referenced_versions ~bits:`B32 ~appetite:(v "2.0") ~build:(v "2.5"))

let test_required_version () =
  Alcotest.(check bool) "max picked" true
    (Glibc.required_version [ "GLIBC_2.2.5"; "GLIBC_2.5"; "GLIBC_2.3.4" ]
    = Some (v "2.5"));
  Alcotest.(check bool) "none" true (Glibc.required_version [ "FOO_1" ] = None)

(* -- Libdb ------------------------------------------------------------------ *)

let test_catalog_shapes () =
  Alcotest.(check int) "base system size" 7 (List.length Libdb.base_system);
  Alcotest.(check bool) "intel has imf" true
    (List.exists
       (fun e -> Soname.base e.Libdb.soname = "libimf")
       Libdb.intel_runtime);
  let pgi = Libdb.pgi_runtime (v "10.9") in
  Alcotest.(check bool) "pgi has pgf90" true
    (List.exists (fun e -> Soname.base e.Libdb.soname = "libpgf90") pgi);
  let g34 = Libdb.gnu_fortran_runtime (v "3.4.6") in
  Alcotest.(check bool) "g2c for gcc3" true
    (List.exists (fun e -> Soname.to_string e.Libdb.soname = "libg2c.so.0") g34)

let test_scientific_generations () =
  let old_fftw = Libdb.scientific_soname Libdb.Fftw Libdb.Old_generation in
  let new_fftw = Libdb.scientific_soname Libdb.Fftw Libdb.New_generation in
  Alcotest.(check string) "old" "libfftw.so.2" (Soname.to_string old_fftw);
  Alcotest.(check string) "new" "libfftw3.so.3" (Soname.to_string new_fftw);
  Alcotest.(check bool) "names differ" true
    (Soname.to_string old_fftw <> Soname.to_string new_fftw)

let test_size_bytes () =
  let e = List.hd Libdb.intel_runtime in
  Alcotest.(check bool) "megabytes" true (Libdb.size_bytes e > 1_000_000)

(* -- Provision ----------------------------------------------------------------- *)

let test_provision_base_files () =
  let site, _ = Fixtures.small_site () in
  let vfs = Site.vfs site in
  List.iter
    (fun p -> Alcotest.(check bool) p true (Vfs.exists vfs p))
    [
      "/lib64/libc.so.6"; "/lib64/libm.so.6"; "/lib64/libpthread.so.0";
      "/usr/lib64/libstdc++.so.6"; "/usr/lib64/libgfortran.so.1";
      "/usr/lib64/libibverbs.so.1" (* IB site *);
      "/etc/redhat-release"; "/proc/version";
      "/usr/share/Modules/modulefiles/openmpi-1.4-gnu";
    ]

let test_provision_compat_g2c () =
  (* EL5 sites carry the compat libg2c *)
  let site, _ = Fixtures.small_site () in
  Alcotest.(check bool) "compat g2c" true
    (Vfs.exists (Site.vfs site) "/usr/lib64/libg2c.so.0")

let test_provision_stack_layout () =
  let site, installs = Fixtures.small_site () in
  let install = List.hd installs in
  let vfs = Site.vfs site in
  Alcotest.(check bool) "libmpi under prefix" true
    (Vfs.exists vfs (Stack_install.lib_dir install ^ "/libmpi.so.0"));
  Alcotest.(check bool) "mpicc wrapper" true
    (Vfs.exists vfs (Stack_install.bin_dir install ^ "/mpicc"));
  Alcotest.(check bool) "mpiexec" true
    (Vfs.exists vfs (Stack_install.bin_dir install ^ "/mpiexec"))

let test_provision_no_ib_on_ethernet () =
  let site, _ =
    Fixtures.small_site ~interconnect:Feam_mpi.Interconnect.Ethernet
      ~stacks:(Some [ (Fixtures.ompi14 Fixtures.gnu412, Stack_install.Functioning) ])
      ()
  in
  Alcotest.(check bool) "no verbs" false
    (Vfs.exists (Site.vfs site) "/usr/lib64/libibverbs.so.1")

let test_libc_image_verdefs () =
  let site, _ = Fixtures.small_site ~glibc:"2.5" () in
  match Vfs.find (Site.vfs site) "/lib64/libc.so.6" with
  | Some { Vfs.kind = Vfs.Elf bytes; _ } ->
    let spec = Result.get_ok (Feam_elf.Reader.spec_of_bytes bytes) in
    Alcotest.(check bool) "defines 2.5" true
      (List.mem "GLIBC_2.5" spec.Feam_elf.Spec.verdefs);
    Alcotest.(check bool) "not 2.6" false
      (List.mem "GLIBC_2.6" spec.Feam_elf.Spec.verdefs);
    Alcotest.(check bool) "private" true
      (List.mem "GLIBC_PRIVATE" spec.Feam_elf.Spec.verdefs)
  | _ -> Alcotest.fail "no libc image"

let test_library_provenance () =
  let site, _ = Fixtures.small_site () in
  match Vfs.find (Site.vfs site) "/usr/lib64/libgfortran.so.1" with
  | Some { Vfs.kind = Vfs.Elf bytes; _ } -> (
    match Build_world.find (Site.world site) (Digest.string bytes) with
    | Some prov ->
      Alcotest.(check string) "build site" "testbed"
        prov.Provenance.build_site;
      Alcotest.(check bool) "fragility set" true
        (prov.Provenance.copy_abi_fragility > 0.0)
    | None -> Alcotest.fail "no provenance")
  | _ -> Alcotest.fail "no gfortran"

(* -- Compile -------------------------------------------------------------------- *)

let compiled_spec image =
  Feam_elf.Reader.spec (Result.get_ok (Feam_elf.Reader.parse_image image))

let test_compile_dependencies () =
  let site, installs = Fixtures.small_site () in
  let install = List.hd installs (* openmpi-1.4-gnu *) in
  let program = Compile.program ~language:Feam_mpi.Stack.Fortran "fapp" in
  let image = Result.get_ok (Compile.compile_mpi site install program) in
  let spec = compiled_spec image in
  let needed = spec.Feam_elf.Spec.needed in
  List.iter
    (fun dep -> Alcotest.(check bool) dep true (List.mem dep needed))
    [ "libmpi.so.0"; "libmpi_f77.so.0"; "libnsl.so.1"; "libutil.so.1";
      "libgfortran.so.1"; "libm.so.6"; "libc.so.6" ]

let test_compile_required_glibc () =
  let site, installs = Fixtures.small_site ~glibc:"2.5" () in
  let install = List.hd installs in
  let program = Compile.program ~glibc_appetite:(v "2.7") "hungry" in
  let image = Result.get_ok (Compile.compile_mpi site install program) in
  let spec = compiled_spec image in
  let req =
    Glibc.required_version
      (List.concat_map (fun vn -> vn.Feam_elf.Spec.vn_versions) spec.Feam_elf.Spec.verneeds)
  in
  (* capped by the build site's glibc *)
  Alcotest.(check bool) "capped at 2.5" true (req = Some (v "2.5"))

let test_compile_comments () =
  let site, installs = Fixtures.small_site () in
  let install = List.hd installs in
  let image =
    Result.get_ok (Compile.compile_mpi site install (Compile.program "app"))
  in
  let spec = compiled_spec image in
  Alcotest.(check bool) "gcc comment" true
    (List.exists (String.starts_with ~prefix:"GCC:") spec.Feam_elf.Spec.comments);
  Alcotest.(check bool) "distro in comment" true
    (List.exists (fun c -> Str_split.contains ~sub:"CentOS" c) spec.Feam_elf.Spec.comments)

let test_compile_unique_images () =
  let site, installs = Fixtures.small_site () in
  let install = List.hd installs in
  let p = Compile.program "app" in
  let a = Result.get_ok (Compile.compile_mpi site install p) in
  let b = Result.get_ok (Compile.compile_mpi site install p) in
  Alcotest.(check bool) "distinct builds differ" true
    (Feam_elf.Reader.(image_bytes a <> image_bytes b))

let test_compile_serial_requires_compiler () =
  let site, _ = Fixtures.small_site ~tools:({ Tools.full with Tools.c_compiler = false }) () in
  match Compile.compile_serial site Fixtures.hello_serial with
  | Error Compile.Compiler_unavailable -> ()
  | _ -> Alcotest.fail "expected unavailable"

let test_compile_to_installs_file () =
  let site, installs = Fixtures.small_site () in
  let install = List.hd installs in
  let path =
    Result.get_ok
      (Compile.compile_mpi_to site install (Compile.program "abc") ~dir:"/home/u")
  in
  Alcotest.(check string) "path" "/home/u/abc" path;
  Alcotest.(check bool) "exists" true (Vfs.exists (Site.vfs site) path)

let test_probe_provenance () =
  let site, installs = Fixtures.small_site () in
  let install = List.hd installs in
  let image = Result.get_ok (Compile.compile_mpi site install Compile.hello_world_mpi) in
  match Build_world.find (Site.world site) (Feam_elf.Reader.image_digest image) with
  | Some prov -> Alcotest.(check bool) "probe flag" true prov.Provenance.is_probe
  | None -> Alcotest.fail "no provenance"

let suite =
  ( "toolchain",
    [
      Alcotest.test_case "glibc symbol roundtrip" `Quick test_symbol_roundtrip;
      Alcotest.test_case "glibc defined versions" `Quick test_defined_versions;
      Alcotest.test_case "glibc provides" `Quick test_provides;
      Alcotest.test_case "glibc referenced versions" `Quick test_referenced_versions;
      Alcotest.test_case "glibc required version" `Quick test_required_version;
      Alcotest.test_case "catalog shapes" `Quick test_catalog_shapes;
      Alcotest.test_case "scientific generations" `Quick test_scientific_generations;
      Alcotest.test_case "catalog sizes" `Quick test_size_bytes;
      Alcotest.test_case "provision base files" `Quick test_provision_base_files;
      Alcotest.test_case "provision compat g2c" `Quick test_provision_compat_g2c;
      Alcotest.test_case "provision stack layout" `Quick test_provision_stack_layout;
      Alcotest.test_case "no IB libs on ethernet" `Quick test_provision_no_ib_on_ethernet;
      Alcotest.test_case "libc verdefs" `Quick test_libc_image_verdefs;
      Alcotest.test_case "library provenance" `Quick test_library_provenance;
      Alcotest.test_case "compile dependencies" `Quick test_compile_dependencies;
      Alcotest.test_case "compile required glibc" `Quick test_compile_required_glibc;
      Alcotest.test_case "compile comments" `Quick test_compile_comments;
      Alcotest.test_case "compile unique images" `Quick test_compile_unique_images;
      Alcotest.test_case "serial needs compiler" `Quick test_compile_serial_requires_compiler;
      Alcotest.test_case "compile_to installs" `Quick test_compile_to_installs_file;
      Alcotest.test_case "probe provenance" `Quick test_probe_provenance;
    ] )
