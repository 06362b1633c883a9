(* Tests for the benchmark-suite models: process-count rules and the
   workload generator's compile behaviour. *)

open Feam_suites

let test_np_rules () =
  Alcotest.(check bool) "bt square" true ((Fixtures.npb "bt.A").Benchmark.np_rule = `Square);
  Alcotest.(check bool) "sp square" true ((Fixtures.npb "sp.A").Benchmark.np_rule = `Square);
  Alcotest.(check bool) "is pow2" true ((Fixtures.npb "is.A").Benchmark.np_rule = `Power_of_two);
  Alcotest.(check bool) "spec any" true
    (List.for_all (fun b -> b.Benchmark.np_rule = `Any) Specmpi.all)

let test_np_rule_enforced () =
  (* a BT binary launched with np = 6 (not a square) aborts at startup *)
  let site, installs = Fixtures.small_site () in
  let install = List.hd installs in
  let program = Benchmark.to_program ~site (Fixtures.npb "bt.A") in
  let path =
    Result.get_ok
      (Feam_toolchain.Compile.compile_mpi_to site install program
         ~dir:"/home/user/apps")
  in
  let env = Fixtures.session_env site install in
  (match
     Feam_dynlinker.Exec.run ~params:Feam_sysmodel.Fault_model.none site env
       ~binary_path:path ~mode:(Feam_dynlinker.Exec.Mpi 6)
   with
  | Feam_dynlinker.Exec.Failure (Feam_dynlinker.Exec.Invalid_process_count f) ->
    Alcotest.(check int) "np recorded" 6 f.np
  | o -> Alcotest.failf "unexpected: %s" (Feam_dynlinker.Exec.outcome_to_string o));
  (* and np = 4 (a square) is fine *)
  match
    Feam_dynlinker.Exec.run ~params:Feam_sysmodel.Fault_model.none site env
      ~binary_path:path ~mode:(Feam_dynlinker.Exec.Mpi 4)
  with
  | Feam_dynlinker.Exec.Success -> ()
  | o -> Alcotest.failf "unexpected: %s" (Feam_dynlinker.Exec.outcome_to_string o)

let test_compiler_exclusions () =
  (* 115.fds4 never builds with PGI *)
  let pgi_stack =
    Feam_mpi.Stack.make ~impl:Feam_mpi.Impl.Open_mpi
      ~impl_version:(Feam_util.Version.of_string_exn "1.4")
      ~compiler:(Feam_mpi.Compiler.make Feam_mpi.Compiler.Pgi
                   (Feam_util.Version.of_string_exn "10.9"))
      ~interconnect:Feam_mpi.Interconnect.Ethernet
  in
  Alcotest.(check bool) "fds4 rejects pgi" false
    (Benchmark.compiles_with (Fixtures.spec_mpi "115.fds4") pgi_stack ~fragility_draw:false);
  Alcotest.(check bool) "fds4 accepts gnu" true
    (Benchmark.compiles_with (Fixtures.spec_mpi "115.fds4")
       (Fixtures.ompi14 Fixtures.gnu412)
       ~fragility_draw:false);
  Alcotest.(check bool) "fragility draw kills" false
    (Benchmark.compiles_with (Fixtures.spec_mpi "115.fds4")
       (Fixtures.ompi14 Fixtures.gnu412)
       ~fragility_draw:true)

let test_lib_families_resolve_per_site () =
  (* lammps links the site generation's FFTW soname *)
  let old_site, _ = Fixtures.small_site ~name:"oldgen" () in
  let program = Benchmark.to_program ~site:old_site (Fixtures.spec_mpi "126.lammps") in
  let libs =
    List.map Feam_util.Soname.to_string program.Feam_toolchain.Compile.extra_libs
  in
  Alcotest.(check bool) "old gen fftw2" true (List.mem "libfftw.so.2" libs)

let suite =
  ( "suites",
    [
      Alcotest.test_case "np rules assigned" `Quick test_np_rules;
      Alcotest.test_case "np rule enforced" `Quick test_np_rule_enforced;
      Alcotest.test_case "compiler exclusions" `Quick test_compiler_exclusions;
      Alcotest.test_case "lib families per site" `Quick test_lib_families_resolve_per_site;
    ] )
