(* Tests for FEAM's core components below the TEC: identification scheme
   (Table I), objdump output parsing, configuration, BDC and EDC. *)

open Feam_util
open Feam_sysmodel
open Feam_core

let v = Version.of_string_exn

(* -- Mpi_ident (Table I) ---------------------------------------------------- *)

let test_ident_open_mpi () =
  match Mpi_ident.identify [ "libmpi.so.0"; "libnsl.so.1"; "libutil.so.1"; "libc.so.6" ] with
  | Some i ->
    Alcotest.(check bool) "ompi" true (i.Mpi_ident.impl = Feam_mpi.Impl.Open_mpi);
    Alcotest.(check bool) "no fortran" false i.Mpi_ident.fortran_bindings
  | None -> Alcotest.fail "not identified"

let test_ident_mvapich2 () =
  match Mpi_ident.identify [ "libmpich.so.1"; "libibverbs.so.1"; "libibumad.so.3" ] with
  | Some i -> Alcotest.(check bool) "mvapich2" true (i.Mpi_ident.impl = Feam_mpi.Impl.Mvapich2)
  | None -> Alcotest.fail "not identified"

let test_ident_mpich2 () =
  match Mpi_ident.identify [ "libmpich.so.1"; "libmpichf90.so.1"; "librt.so.1" ] with
  | Some i ->
    Alcotest.(check bool) "mpich2" true (i.Mpi_ident.impl = Feam_mpi.Impl.Mpich2);
    Alcotest.(check bool) "fortran" true i.Mpi_ident.fortran_bindings
  | None -> Alcotest.fail "not identified"

let test_ident_serial () =
  Alcotest.(check bool) "serial" true
    (Mpi_ident.identify [ "libc.so.6"; "libm.so.6" ] = None)

let test_ident_evidence () =
  match Mpi_ident.identify [ "libmpi.so.0"; "libnsl.so.1" ] with
  | Some i ->
    Alcotest.(check bool) "evidence includes libnsl" true
      (List.mem "libnsl.so" i.Mpi_ident.evidence)
  | None -> Alcotest.fail "not identified"

(* -- Objdump_parse ------------------------------------------------------------ *)

let sample_objdump =
  "/home/user/bt.A:     file format elf64-x86-64\n\n\
   Dynamic Section:\n\
  \  NEEDED               libmpi.so.0\n\
  \  NEEDED               libc.so.6\n\
  \  SONAME               libexample.so.2\n\
  \  RPATH                /opt/x/lib\n\
  \  STRTAB               0x400000\n\n\
   Version References:\n\
  \  required from libc.so.6:\n\
  \    0x09691a75 0x00 02 GLIBC_2.2.5\n\
  \    0x09691a76 0x00 03 GLIBC_2.5\n"

let test_parse_objdump () =
  let info = Result.get_ok (Objdump_parse.parse_objdump_p sample_objdump) in
  Alcotest.(check string) "format" "elf64-x86-64" info.Objdump_parse.file_format;
  Alcotest.(check (list string)) "needed" [ "libmpi.so.0"; "libc.so.6" ]
    info.Objdump_parse.needed;
  Alcotest.(check (option string)) "soname" (Some "libexample.so.2")
    info.Objdump_parse.soname;
  Alcotest.(check (option string)) "rpath" (Some "/opt/x/lib") info.Objdump_parse.rpath;
  Alcotest.(check (list string)) "versions" [ "GLIBC_2.2.5"; "GLIBC_2.5" ]
    (List.assoc "libc.so.6" info.Objdump_parse.verneeds)

let test_parse_objdump_rejects () =
  Alcotest.(check bool) "garbage" true
    (Result.is_error (Objdump_parse.parse_objdump_p "garbage with no format line"))

let test_machine_of_format () =
  Alcotest.(check bool) "x86-64" true
    (Objdump_parse.machine_of_format "elf64-x86-64"
    = Some (Feam_elf.Types.X86_64, Feam_elf.Types.C64));
  Alcotest.(check bool) "unknown" true (Objdump_parse.machine_of_format "elf64-vax" = None)

let test_parse_readelf () =
  let text =
    "\nString dump of section '.comment':\n\
    \  [     0]  GCC: (GNU) 4.1.2 (CentOS 5.6)\n\
    \  [    1f]  GNU ld version 2.17\n"
  in
  let comments = Objdump_parse.parse_readelf_comment text in
  Alcotest.(check int) "two strings" 2 (List.length comments);
  let prov = Objdump_parse.provenance_of_comments comments in
  Alcotest.(check (option string)) "compiler" (Some "GCC: (GNU) 4.1.2 (CentOS 5.6)")
    prov.Objdump_parse.compiler_banner;
  Alcotest.(check (option string)) "os" (Some "CentOS") prov.Objdump_parse.build_os

(* -- Config -------------------------------------------------------------------- *)

let test_config_parse () =
  let body =
    "# comment\n\
     phase = both\n\
     binary = /home/user/bt.A\n\
     serial_queue = debug\n\
     probe_np = 8\n\
     launcher.mvapich2 = mpirun_rsh\n"
  in
  let config = Result.get_ok (Config.of_file_body body) in
  Alcotest.(check bool) "phase" true (config.Config.phase = Config.Both_phases);
  Alcotest.(check (option string)) "binary" (Some "/home/user/bt.A")
    config.Config.binary_path;
  Alcotest.(check int) "np" 8 config.Config.probe_np;
  Alcotest.(check string) "launcher override" "mpirun_rsh"
    (Config.launcher config Feam_mpi.Impl.Mvapich2);
  Alcotest.(check string) "default launcher" "mpiexec"
    (Config.launcher config Feam_mpi.Impl.Open_mpi)

let test_config_errors () =
  match Config.of_file_body "phase = sideways\nbogus_key = 1\nnot a line\n" with
  | Error errors -> Alcotest.(check int) "three errors" 3 (List.length errors)
  | Ok _ -> Alcotest.fail "expected errors"

(* -- BDC ------------------------------------------------------------------------ *)

let fortran_fixture () =
  let site, installs = Fixtures.small_site () in
  let path, install =
    Fixtures.compiled_binary ~program:Fixtures.fortran_program site installs
  in
  (site, installs, path, install)

let test_bdc_describe () =
  let site, _, path, _ = fortran_fixture () in
  let d = Fixtures.run_exn (Bdc.describe site (Site.base_env site) ~path) in
  Alcotest.(check string) "format" "elf64-x86-64" d.Description.file_format;
  Alcotest.(check bool) "identified ompi" true
    (match d.Description.mpi with
    | Some i -> i.Mpi_ident.impl = Feam_mpi.Impl.Open_mpi && i.Mpi_ident.fortran_bindings
    | None -> false);
  Alcotest.(check bool) "required glibc known" true (d.Description.required_glibc <> None);
  Alcotest.(check bool) "gfortran needed" true
    (List.mem "libgfortran.so.1" d.Description.needed);
  Alcotest.(check bool) "not a library" true (d.Description.soname = None)

let test_bdc_describe_library () =
  let site, _ = Fixtures.small_site () in
  let d =
    Fixtures.run_exn
      (Bdc.describe site (Site.base_env site) ~path:"/usr/lib64/libgfortran.so.1")
  in
  (* the embedded version comes from the official shared object name *)
  Alcotest.(check bool) "is library, embedded version" true
    (Option.map Feam_util.Soname.version d.Description.soname = Some [ 1 ])

let test_bdc_fallback_without_objdump () =
  let site, installs =
    Fixtures.small_site ~tools:({ Tools.full with Tools.objdump = false }) ()
  in
  let path, install = Fixtures.compiled_binary site installs in
  (* with a session env ldd can resolve, so the fallback fills the fields *)
  let env = Fixtures.session_env site install in
  let d = Fixtures.run_exn (Bdc.describe site env ~path) in
  Alcotest.(check string) "format via file(1)" "elf64-x86-64" d.Description.file_format;
  Alcotest.(check bool) "needed via ldd" true (List.mem "libmpi.so.0" d.Description.needed)

let test_bdc_gather_source () =
  let site, _, path, install = fortran_fixture () in
  let env = Fixtures.session_env site install in
  let gathered = Fixtures.run_exn (Bdc.gather_source site env ~path) in
  Alcotest.(check (list string)) "nothing unlocatable" [] gathered.Bdc.unlocatable;
  let names = List.map (fun c -> c.Bdc.copy_request) gathered.Bdc.copies in
  Alcotest.(check bool) "gfortran copied" true (List.mem "libgfortran.so.1" names);
  Alcotest.(check bool) "libmpi copied" true (List.mem "libmpi.so.0" names);
  (* the C library is never copied (paper §V.A) *)
  Alcotest.(check bool) "no libc copy" false (List.mem "libc.so.6" names);
  (* copies carry their own descriptions *)
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Bdc.copy_request ^ " described as library")
        true
        (c.Bdc.copy_description.Description.soname <> None))
    gathered.Bdc.copies

let test_bdc_gather_without_ldd () =
  let site, installs =
    Fixtures.small_site ~tools:({ Tools.full with Tools.ldd = false }) ()
  in
  let path, install = Fixtures.compiled_binary site installs in
  let env = Fixtures.session_env site install in
  let gathered = Fixtures.run_exn (Bdc.gather_source site env ~path) in
  let names = List.map (fun c -> c.Bdc.copy_request) gathered.Bdc.copies in
  (* locate/find fallback still finds the direct dependencies *)
  Alcotest.(check bool) "libmpi via search" true (List.mem "libmpi.so.0" names)

(* -- EDC ------------------------------------------------------------------------ *)

let test_edc_discover () =
  let site, installs = Fixtures.small_site ~glibc:"2.5" () in
  let install = List.hd installs in
  let env = Fixtures.session_env site install in
  let d = Edc.discover ~env_type:`Target site env in
  Alcotest.(check bool) "isa" true (d.Discovery.machine = Some Feam_elf.Types.X86_64);
  Alcotest.(check bool) "glibc" true (d.Discovery.glibc = Some (v "2.5"));
  Alcotest.(check bool) "os" true
    (match d.Discovery.os with Some os -> Str_split.contains ~sub:"CentOS" os | None -> false);
  Alcotest.(check int) "two stacks" 2 (List.length d.Discovery.stacks);
  Alcotest.(check bool) "current stack" true
    (match d.Discovery.current_stack with
    | Some c -> c.Discovery.slug = Stack_install.module_name install
    | None -> false)

let test_edc_softenv () =
  let site, _ = Fixtures.small_site ~modules_flavor:Site.Softenv () in
  let d = Edc.discover ~env_type:`Target site (Site.base_env site) in
  Alcotest.(check bool) "stacks via softenv" true
    (List.for_all (fun s -> s.Discovery.discovered_via = Discovery.Softenv) d.Discovery.stacks
    && d.Discovery.stacks <> [])

let test_edc_path_search_fallback () =
  let site, _ = Fixtures.small_site ~modules_flavor:Site.No_tool () in
  let d = Edc.discover ~env_type:`Target site (Site.base_env site) in
  Alcotest.(check bool) "found by path search" true
    (List.exists
       (fun s -> s.Discovery.discovered_via = Discovery.Path_search)
       d.Discovery.stacks)

let test_edc_stack_slug_parse () =
  match Discovery.parse_stack_slug ~via:Discovery.Modules "openmpi-1.4.3-intel" with
  | Some s ->
    Alcotest.(check bool) "impl" true (s.Discovery.impl = Feam_mpi.Impl.Open_mpi);
    Alcotest.(check bool) "version" true (s.Discovery.impl_version = Some (v "1.4.3"));
    Alcotest.(check bool) "family" true
      (s.Discovery.compiler_family = Some Feam_mpi.Compiler.Intel)
  | None -> Alcotest.fail "slug not parsed"

let test_edc_slug_rejects_non_mpi () =
  Alcotest.(check bool) "compiler module ignored" true
    (Discovery.parse_stack_slug ~via:Discovery.Modules "intel-11.1" = None)

let test_edc_missing_libraries () =
  let site, installs = Fixtures.small_site () in
  let path, install = Fixtures.compiled_binary site installs in
  let d =
    Fixtures.run_exn (Bdc.describe site (Site.base_env site) ~path)
  in
  (* without the stack loaded, MPI libraries are missing *)
  let missing =
    Edc.missing_libraries site (Site.base_env site) ~binary_path:path
      ~needed:d.Description.needed
  in
  Alcotest.(check bool) "libmpi missing" true (List.mem "libmpi.so.0" missing);
  (* with the stack loaded, nothing is missing *)
  let env = Fixtures.session_env site install in
  Alcotest.(check (list string)) "none missing" []
    (Edc.missing_libraries site env ~binary_path:path ~needed:d.Description.needed)

let test_edc_glibc_banner_parse () =
  (* discovery runs the C library binary and parses its banner *)
  let site, _ = Fixtures.small_site ~name:"banner" ~glibc:"2.3.4" () in
  let d = Edc.discover ~env_type:`Target site (Site.base_env site) in
  Alcotest.(check bool) "parse banner" true
    (d.Discovery.glibc = Some (v "2.3.4"))

(* -- Evidence: the one atom diff ---------------------------------------- *)

let test_evidence_diff () =
  let site = Evidence.Site_owner "fir" in
  let olds =
    [
      ("inventory./lib/libm.so", "d1");
      ("discovery.env_type", "modules");
      ("discovery.glibc", "2.5");
      ("ld_cache_current", "true");
    ]
  in
  let news =
    [
      ("mystery.atom", "x");
      ("discovery.glibc", "2.5");
      ("ld_cache_current", "false");
      ("discovery.env_type", "softenv");
    ]
  in
  let changes = Evidence.diff site olds news in
  let show = function None -> "-" | Some v -> v in
  Alcotest.(check (list string))
    "path-sorted changes, unchanged atoms dropped"
    [
      "discovery.env_type modules softenv";
      "inventory./lib/libm.so d1 -";
      "ld_cache_current true false";
      "mystery.atom - x";
    ]
    (List.map
       (fun c ->
         String.concat " "
           [ c.Evidence.ev_path; show c.Evidence.ev_before; show c.Evidence.ev_after ])
       changes);
  Alcotest.(check bool) "every change is the owner's" true
    (List.for_all (fun c -> c.Evidence.ev_owner = site) changes);
  let determinants path =
    match List.find_opt (fun c -> c.Evidence.ev_path = path) changes with
    | Some c -> c.Evidence.ev_determinants
    | None -> Alcotest.failf "no change at %s" path
  in
  Alcotest.(check (list string))
    "the environment type is verdict-inert" [] (determinants "discovery.env_type");
  Alcotest.(check (list string))
    "an unknown path feeds all four determinants"
    [ "isa"; "glibc"; "mpi_stack"; "shared_libraries" ]
    (determinants "mystery.atom");
  Alcotest.(check (list string))
    "library visibility feeds stack and libraries"
    [ "mpi_stack"; "shared_libraries" ] (determinants "inventory./lib/libm.so");
  Alcotest.(check int) "identical captures diff to nothing" 0
    (List.length (Evidence.diff site news (List.rev news)))

let suite =
  ( "core-components",
    [
      Alcotest.test_case "ident Open MPI" `Quick test_ident_open_mpi;
      Alcotest.test_case "ident MVAPICH2" `Quick test_ident_mvapich2;
      Alcotest.test_case "ident MPICH2" `Quick test_ident_mpich2;
      Alcotest.test_case "ident serial" `Quick test_ident_serial;
      Alcotest.test_case "ident evidence" `Quick test_ident_evidence;
      Alcotest.test_case "parse objdump" `Quick test_parse_objdump;
      Alcotest.test_case "parse objdump rejects" `Quick test_parse_objdump_rejects;
      Alcotest.test_case "machine of format" `Quick test_machine_of_format;
      Alcotest.test_case "parse readelf" `Quick test_parse_readelf;
      Alcotest.test_case "config parse" `Quick test_config_parse;
      Alcotest.test_case "config errors" `Quick test_config_errors;
      Alcotest.test_case "bdc describe" `Quick test_bdc_describe;
      Alcotest.test_case "bdc describe library" `Quick test_bdc_describe_library;
      Alcotest.test_case "bdc fallback without objdump" `Quick test_bdc_fallback_without_objdump;
      Alcotest.test_case "bdc gather source" `Quick test_bdc_gather_source;
      Alcotest.test_case "bdc gather without ldd" `Quick test_bdc_gather_without_ldd;
      Alcotest.test_case "edc discover" `Quick test_edc_discover;
      Alcotest.test_case "edc softenv" `Quick test_edc_softenv;
      Alcotest.test_case "edc path-search fallback" `Quick test_edc_path_search_fallback;
      Alcotest.test_case "edc slug parse" `Quick test_edc_stack_slug_parse;
      Alcotest.test_case "edc slug rejects non-MPI" `Quick test_edc_slug_rejects_non_mpi;
      Alcotest.test_case "edc missing libraries" `Quick test_edc_missing_libraries;
      Alcotest.test_case "edc glibc banner" `Quick test_edc_glibc_banner_parse;
      Alcotest.test_case "evidence diff" `Quick test_evidence_diff;
    ] )
