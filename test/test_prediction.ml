(* Integration tests for the prediction and resolution models through the
   TEC and the two phases: the paper's §III/§IV semantics. *)

open Feam_util
open Feam_sysmodel
open Feam_core

let v = Version.of_string_exn

let config = Config.default

(* Run a full migration through FEAM: source phase at [home], target
   phase at [target]; returns (prediction, bundle). *)
let feam_migrate ?(with_bundle = true) home home_install home_path target =
  Vfs.remove_tree (Site.vfs target) "/tmp/feam";
  let bundle =
    if with_bundle then
      let env = Fixtures.session_env home home_install in
      Some (Fixtures.run_exn (Phases.source_phase config home env ~binary_path:home_path))
    else None
  in
  (* stage the binary at the target *)
  let bytes =
    match Vfs.find (Site.vfs home) home_path with
    | Some { Vfs.kind = Vfs.Elf bytes; _ } -> bytes
    | _ -> Alcotest.fail "no binary"
  in
  Vfs.add (Site.vfs target) "/home/user/migrated/app" (Vfs.Elf bytes);
  let report =
    Fixtures.run_exn
      (Phases.target_phase config target (Site.base_env target) ?bundle
         ~binary_path:"/home/user/migrated/app" ())
  in
  (Report.prediction report, bundle)

(* -- Determinant 1: ISA ------------------------------------------------------ *)

let test_isa_determinant_blocks () =
  let home, home_installs = Fixtures.small_site ~name:"home" () in
  let home_path, home_install = Fixtures.compiled_binary home home_installs in
  let ppc, _ = Fixtures.ppc_site () in
  let p, _ = feam_migrate home home_install home_path ppc in
  Alcotest.(check bool) "not ready" false (Predict.is_ready p);
  Alcotest.(check bool) "isa reason" true
    (List.exists (fun r -> Str_split.contains ~sub:"incompatible ISA" r) (Predict.reasons p));
  (* evaluation stopped before the stack determinant (paper §V.C) *)
  Alcotest.(check bool) "stack not evaluated" true
    (p.Predict.determinants.Predict.stack = None)

(* -- Determinant 3: C library -------------------------------------------------- *)

let test_clib_determinant_blocks () =
  let home, home_installs = Fixtures.small_site ~name:"home" ~glibc:"2.12" () in
  let program = Feam_toolchain.Compile.program ~glibc_appetite:(v "2.7") "hungry" in
  let home_path, home_install = Fixtures.compiled_binary ~program home home_installs in
  let target, _ = Fixtures.small_site ~name:"target" ~glibc:"2.5" () in
  let p, _ = feam_migrate home home_install home_path target in
  Alcotest.(check bool) "not ready" false (Predict.is_ready p);
  Alcotest.(check bool) "clib reason" true
    (List.exists (fun r -> Str_split.contains ~sub:"C library too old" r) (Predict.reasons p));
  let d = p.Predict.determinants in
  Alcotest.(check bool) "required recorded" true
    (d.Predict.clib.Predict.required = Some (v "2.7"));
  Alcotest.(check bool) "available recorded" true
    (d.Predict.clib.Predict.available = Some (v "2.5"))

let test_clib_equal_is_compatible () =
  Alcotest.(check bool) "equal ok" true
    (Predict.clib_rule ~required:(Some (v "2.5")) ~available:(Some (v "2.5")));
  Alcotest.(check bool) "newer ok" true
    (Predict.clib_rule ~required:(Some (v "2.5")) ~available:(Some (v "2.12")));
  Alcotest.(check bool) "older bad" false
    (Predict.clib_rule ~required:(Some (v "2.5")) ~available:(Some (v "2.3.4")));
  Alcotest.(check bool) "no requirement ok" true
    (Predict.clib_rule ~required:None ~available:None);
  Alcotest.(check bool) "unknown site conservative" false
    (Predict.clib_rule ~required:(Some (v "2.5")) ~available:None)

(* -- Determinant 2: MPI stack --------------------------------------------------- *)

let test_no_matching_impl () =
  let home, home_installs = Fixtures.small_site ~name:"home" () in
  let home_path, home_install = Fixtures.compiled_binary home home_installs in
  (* target offers only MPICH2 *)
  let target, _ =
    Fixtures.small_site ~name:"target"
      ~stacks:(Some [ (Fixtures.mpich2 Fixtures.gnu412, Stack_install.Functioning) ])
      ()
  in
  let p, _ = feam_migrate home home_install home_path target in
  Alcotest.(check bool) "not ready" false (Predict.is_ready p);
  Alcotest.(check bool) "reason" true
    (List.exists
       (fun r -> Str_split.contains ~sub:"no compatible MPI implementation" r)
       (Predict.reasons p))

let test_misconfigured_stack_detected () =
  let home, home_installs = Fixtures.small_site ~name:"home" () in
  let home_path, home_install = Fixtures.compiled_binary home home_installs in
  let target, _ =
    Fixtures.small_site ~name:"target"
      ~stacks:
        (Some
           [
             ( Fixtures.ompi14 Fixtures.gnu412,
               Stack_install.Misconfigured "broken module" );
           ])
      ()
  in
  let p, _ = feam_migrate home home_install home_path target in
  Alcotest.(check bool) "not ready" false (Predict.is_ready p);
  match p.Predict.determinants.Predict.stack with
  | Some s ->
    Alcotest.(check int) "one candidate" 1 (List.length s.Predict.candidates_found);
    Alcotest.(check bool) "probe failure recorded" true (s.Predict.probe_failures <> [])
  | None -> Alcotest.fail "stack determinant missing"

let test_foreign_defect_extended_vs_basic () =
  (* A stack defect that only foreign binaries hit: the basic prediction
     (native probes only) says ready; the extended prediction's shipped
     probes catch it (paper §VI.C). *)
  let home, home_installs = Fixtures.small_site ~name:"home" () in
  let home_path, home_install = Fixtures.compiled_binary home home_installs in
  let target, _ =
    Fixtures.small_site ~name:"target"
      ~stacks:
        (Some
           [
             ( Fixtures.ompi14 Fixtures.gnu445,
               Stack_install.Foreign_binary_defect
                 {
                   Stack_install.affected_build_versions = [ v "1.4" ];
                   symptom = `Abi_incompatibility;
                 } );
           ])
      ()
  in
  let basic, _ = feam_migrate ~with_bundle:false home home_install home_path target in
  Alcotest.(check bool) "basic fooled" true (Predict.is_ready basic);
  let extended, _ = feam_migrate home home_install home_path target in
  Alcotest.(check bool) "extended catches" false (Predict.is_ready extended)

(* -- Determinant 4 + resolution -------------------------------------------------- *)

let fortran_home ?(glibc = "2.5") name =
  let site, installs = Fixtures.small_site ~name ~glibc () in
  let path, install =
    Fixtures.compiled_binary ~program:Fixtures.fortran_program site installs
  in
  (site, path, install)

(* Target whose GNU runtime has a different gfortran soname. *)
let gcc44_target ?(glibc = "2.12") name =
  let site =
    Site.make ~world:Fixtures.world ~description:"gcc 4.4 target" ~tools:Tools.full
      ~modules_flavor:Site.Environment_modules
      ~compilers:[ Fixtures.gnu445 ] ~seed:13 ~machine:Feam_elf.Types.X86_64
      ~distro:
        (Distro.make Distro.Rhel ~version:(v "6.1") ~kernel:(v "2.6.32"))
      ~glibc:(v glibc) ~interconnect:Feam_mpi.Interconnect.Infiniband
      ~batch:Fixtures.default_batch name
  in
  let _installs =
    Feam_toolchain.Provision.provision_site site
      ~stacks:[ (Fixtures.ompi14 Fixtures.gnu445, Stack_install.Functioning) ]
  in
  site

let test_missing_lib_without_bundle () =
  let home, home_path, home_install = fortran_home "home" in
  let target = gcc44_target "target" in
  let p, _ = feam_migrate ~with_bundle:false home home_install home_path target in
  Alcotest.(check bool) "not ready" false (Predict.is_ready p);
  Alcotest.(check bool) "missing gfortran" true
    (List.exists
       (fun r -> Str_split.contains ~sub:"libgfortran.so.1" r)
       (Predict.reasons p))

let test_resolution_fixes_missing_lib () =
  let home, home_path, home_install = fortran_home "home" in
  let target = gcc44_target "target" in
  let p, _ = feam_migrate home home_install home_path target in
  Alcotest.(check bool) "ready after resolution" true (Predict.is_ready p);
  match p.Predict.verdict with
  | Predict.Ready plan ->
    Alcotest.(check bool) "gfortran staged" true
      (List.mem_assoc "libgfortran.so.1" plan.Predict.staged_copies);
    Alcotest.(check bool) "staging dir exported" true
      (plan.Predict.ld_library_path_additions = [ config.Config.staging_dir ]);
    (* the staged copy is a real file at the target *)
    let path = List.assoc "libgfortran.so.1" plan.Predict.staged_copies in
    Alcotest.(check bool) "file staged" true (Vfs.exists (Site.vfs target) path)
  | Predict.Not_ready _ -> Alcotest.fail "expected ready"

let test_resolution_rejects_clib_incompatible_copy () =
  (* copy built on a glibc-2.12 site cannot serve a glibc-2.5 target
     (paper §VI.C: copies "required incompatible C library versions") *)
  let home, home_path, home_install = fortran_home ~glibc:"2.12" "home" in
  ignore home_install;
  (* rebuild home with gcc 4.4 so its gfortran is .so.3 with a 2.6 appetite *)
  ignore home;
  ignore home_path;
  let home = gcc44_target ~glibc:"2.12" "home44" in
  let install = List.hd (Site.stack_installs home) in
  let home_path =
    Fixtures.run_exn
      (Result.map_error Feam_toolchain.Compile.error_to_string
         (Feam_toolchain.Compile.compile_mpi_to home install
            Fixtures.fortran_program ~dir:"/home/user/apps"))
  in
  let target, _ = Fixtures.small_site ~name:"oldtarget" ~glibc:"2.5" () in
  let p, _ = feam_migrate home install home_path target in
  Alcotest.(check bool) "not ready" false (Predict.is_ready p);
  (* the incompatible copy is rejected either at the library determinant
     or earlier, when the shipped Fortran probe (which needs the same
     copy) fails its run *)
  Alcotest.(check bool) "copy rejected" true
    (List.exists
       (fun r ->
         Str_split.contains ~sub:"copy requires C library" r
         || Str_split.contains ~sub:"failed probes" r)
       (Predict.reasons p))

let test_actual_execution_matches_resolution () =
  (* ground truth: the binary actually runs at the target after FEAM's
     staging, and fails without it *)
  let home, home_path, home_install = fortran_home "home" in
  let target = gcc44_target "target" in
  let p, _ = feam_migrate home home_install home_path target in
  let install = List.hd (Site.stack_installs target) in
  let quiet = { Feam_dynlinker.Exec.p_transient = 0.0; p_sticky = 0.0; p_copy_abi = 0.0 } in
  let base = Fixtures.session_env target install in
  let without =
    Feam_dynlinker.Exec.run ~params:quiet target base
      ~binary_path:"/home/user/migrated/app" ~mode:(Feam_dynlinker.Exec.Mpi 4)
  in
  (match without with
  | Feam_dynlinker.Exec.Failure (Feam_dynlinker.Exec.Missing_libraries _) -> ()
  | o -> Alcotest.failf "expected missing libs: %s" (Feam_dynlinker.Exec.outcome_to_string o));
  (match p.Predict.verdict with
  | Predict.Ready plan ->
    let env =
      List.fold_left
        (fun e dir -> Env.prepend_path e "LD_LIBRARY_PATH" dir)
        base plan.Predict.ld_library_path_additions
    in
    let with_fix =
      Feam_dynlinker.Exec.run ~params:quiet target env
        ~binary_path:"/home/user/migrated/app" ~mode:(Feam_dynlinker.Exec.Mpi 4)
    in
    Alcotest.(check string) "runs with staged copy" "success"
      (Feam_dynlinker.Exec.outcome_to_string with_fix)
  | Predict.Not_ready _ -> Alcotest.fail "expected ready")

(* -- Phases & report --------------------------------------------------------------- *)

let test_source_phase_contents () =
  let home, home_path, home_install = fortran_home "home" in
  let env = Fixtures.session_env home home_install in
  let bundle =
    Fixtures.run_exn (Phases.source_phase config home env ~binary_path:home_path)
  in
  Alcotest.(check string) "created at" "home" bundle.Bundle.created_at;
  Alcotest.(check bool) "binary carried" true (Option.is_some bundle.Bundle.binary_image);
  Alcotest.(check int) "two probes (C + Fortran)" 2 (List.length bundle.Bundle.probes);
  Alcotest.(check bool) "copies nonempty" true (bundle.Bundle.copies <> []);
  Alcotest.(check bool) "library bytes accounted" true (Bundle.library_bytes bundle > 0)

let test_source_phase_rejects_wrong_stack () =
  (* the loaded stack does not match the binary's implementation: not a
     guaranteed execution environment for it *)
  let home, installs = Fixtures.small_site ~name:"home" () in
  let path, _ = Fixtures.compiled_binary home installs in
  let mvapich_install =
    List.find
      (fun i ->
        Feam_mpi.Impl.equal
          (Feam_mpi.Stack.impl (Stack_install.stack i))
          Feam_mpi.Impl.Mvapich2)
      installs
  in
  let env = Fixtures.session_env home mvapich_install in
  match Phases.source_phase config home env ~binary_path:path with
  | Error e ->
    Alcotest.(check bool) "mismatch reported" true
      (Str_split.contains ~sub:"does not match" e)
  | Ok _ -> Alcotest.fail "expected mismatch error"

let test_target_phase_without_binary_uses_bundle () =
  (* running both phases means the binary need not be pre-staged (paper §V) *)
  let home, home_path, home_install = fortran_home "home" in
  let target = gcc44_target "target" in
  let env = Fixtures.session_env home home_install in
  let bundle =
    Fixtures.run_exn (Phases.source_phase config home env ~binary_path:home_path)
  in
  let report =
    Fixtures.run_exn
      (Phases.target_phase config target (Site.base_env target) ~bundle ())
  in
  Alcotest.(check bool) "evaluates without pre-staged binary" true
    (Predict.is_ready (Report.prediction report))

let test_target_phase_needs_something () =
  let target, _ = Fixtures.small_site ~name:"t" () in
  match Phases.target_phase config target (Site.base_env target) () with
  | Error e -> Alcotest.(check bool) "helpful error" true (Str_split.contains ~sub:"bundle" e)
  | Ok _ -> Alcotest.fail "expected error"

let test_report_rendering () =
  let home, home_path, home_install = fortran_home "home" in
  let target = gcc44_target "target" in
  let env = Fixtures.session_env home home_install in
  let bundle =
    Fixtures.run_exn (Phases.source_phase config home env ~binary_path:home_path)
  in
  let report =
    Fixtures.run_exn
      (Phases.target_phase config target (Site.base_env target) ~bundle ())
  in
  let text = Report.render report in
  Alcotest.(check bool) "ready" true (Str_split.contains ~sub:"READY" text);
  Alcotest.(check bool) "setup script" true (Str_split.contains ~sub:"module load" text);
  Alcotest.(check bool) "launcher line" true (Str_split.contains ~sub:"mpiexec" text);
  Alcotest.(check bool) "determinants shown" true
    (Str_split.contains ~sub:"C library compatible" text)

let test_serial_binary_skips_stack () =
  let site, _ = Fixtures.small_site ~name:"home" () in
  let image =
    Result.get_ok
      (Feam_toolchain.Compile.compile_serial site
         (Feam_toolchain.Compile.program ~uses_mpi:false "serialtool"))
  in
  Vfs.add_image (Site.vfs site) "/home/user/serialtool" image;
  let target, _ = Fixtures.small_site ~name:"target2" () in
  Vfs.add_image (Site.vfs target) "/home/user/serialtool" image;
  let report =
    Fixtures.run_exn
      (Phases.target_phase config target (Site.base_env target)
         ~binary_path:"/home/user/serialtool" ())
  in
  let p = Report.prediction report in
  Alcotest.(check bool) "ready" true (Predict.is_ready p);
  match p.Predict.verdict with
  | Predict.Ready plan ->
    Alcotest.(check bool) "no stack chosen" true (plan.Predict.chosen_stack_slug = None)
  | _ -> Alcotest.fail "expected ready"

(* Timing: both phases stay under the paper's five-minute bound. *)
let test_phase_timing_bound () =
  let home, home_path, home_install = fortran_home "home" in
  let target = gcc44_target "target" in
  let clock = Sim_clock.create () in
  let env = Fixtures.session_env home home_install in
  let bundle =
    Fixtures.run_exn
      ( Effects.with_clock clock @@ fun () ->
        Phases.source_phase config home env ~binary_path:home_path )
  in
  Alcotest.(check bool) "source under 5 min" true (Sim_clock.elapsed clock < 300.0);
  let clock2 = Sim_clock.create () in
  ignore
    ( Effects.with_clock clock2 @@ fun () ->
      Phases.target_phase config target (Site.base_env target) ~bundle () );
  Alcotest.(check bool) "target under 5 min" true (Sim_clock.elapsed clock2 < 300.0)

let suite =
  ( "prediction",
    [
      Alcotest.test_case "ISA determinant blocks" `Quick test_isa_determinant_blocks;
      Alcotest.test_case "C library determinant blocks" `Quick test_clib_determinant_blocks;
      Alcotest.test_case "C library rule" `Quick test_clib_equal_is_compatible;
      Alcotest.test_case "no matching implementation" `Quick test_no_matching_impl;
      Alcotest.test_case "misconfigured stack detected" `Quick test_misconfigured_stack_detected;
      Alcotest.test_case "foreign defect: extended vs basic" `Quick
        test_foreign_defect_extended_vs_basic;
      Alcotest.test_case "missing lib without bundle" `Quick test_missing_lib_without_bundle;
      Alcotest.test_case "resolution fixes missing lib" `Quick test_resolution_fixes_missing_lib;
      Alcotest.test_case "resolution rejects old-glibc copy" `Quick
        test_resolution_rejects_clib_incompatible_copy;
      Alcotest.test_case "actual execution matches resolution" `Quick
        test_actual_execution_matches_resolution;
      Alcotest.test_case "source phase contents" `Quick test_source_phase_contents;
      Alcotest.test_case "source phase rejects wrong stack" `Quick
        test_source_phase_rejects_wrong_stack;
      Alcotest.test_case "target phase from bundle only" `Quick
        test_target_phase_without_binary_uses_bundle;
      Alcotest.test_case "target phase needs input" `Quick test_target_phase_needs_something;
      Alcotest.test_case "report rendering" `Quick test_report_rendering;
      Alcotest.test_case "serial binary skips stack" `Quick test_serial_binary_skips_stack;
      Alcotest.test_case "phase timing bound" `Quick test_phase_timing_bound;
    ] )
