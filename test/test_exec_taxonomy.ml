(* Completes coverage of the executor's failure taxonomy: every
   constructor of {!Feam_dynlinker.Exec.failure} is reachable and
   reported for the right cause. *)

open Feam_sysmodel
open Feam_mpi
open Feam_dynlinker

let v = Feam_util.Version.of_string_exn

let quiet = Fault_model.none

let run ?params site env path =
  Exec.run ~params:(Option.value params ~default:quiet) site env
    ~binary_path:path ~mode:(Exec.Mpi 4)

let test_arch_mismatched_library_at_exec () =
  (* the right name resolves to a wrong-architecture object *)
  let site, installs = Fixtures.small_site () in
  let install = List.hd installs in
  let ppc_lib =
    Feam_elf.Builder.build
      (Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN ~soname:"libodd.so.1"
         Feam_elf.Types.PPC64)
  in
  Vfs.add (Site.vfs site) "/lib64/libodd.so.1" (Vfs.Elf ppc_lib);
  let binary =
    Feam_elf.Builder.build
      (Feam_elf.Spec.make ~needed:[ "libodd.so.1"; "libc.so.6" ]
         Feam_elf.Types.X86_64)
  in
  Vfs.add (Site.vfs site) "/home/user/odd" (Vfs.Elf binary);
  match run site (Fixtures.session_env site install) "/home/user/odd" with
  | Exec.Failure (Exec.Arch_mismatched_libraries [ "libodd.so.1" ]) -> ()
  | o -> Alcotest.failf "unexpected: %s" (Exec.outcome_to_string o)

let test_unsatisfied_versions_at_exec () =
  let site, installs = Fixtures.small_site ~glibc:"2.5" () in
  let install = List.hd installs in
  let binary =
    Feam_elf.Builder.build
      (Feam_elf.Spec.make ~needed:[ "libc.so.6" ]
         ~verneeds:
           [ { Feam_elf.Spec.vn_file = "libc.so.6"; vn_versions = [ "GLIBC_2.12" ] } ]
         Feam_elf.Types.X86_64)
  in
  Vfs.add (Site.vfs site) "/home/user/newbin" (Vfs.Elf binary);
  match run site (Fixtures.session_env site install) "/home/user/newbin" with
  | Exec.Failure (Exec.Unsatisfied_versions [ f ]) ->
    Alcotest.(check string) "version" "GLIBC_2.12" f.Resolve.vf_version
  | o -> Alcotest.failf "unexpected: %s" (Exec.outcome_to_string o)

let test_no_mpi_stack_at_exec () =
  (* all libraries resolvable from default dirs, MPI launch with no
     stack loaded *)
  let site, installs = Fixtures.small_site () in
  ignore installs;
  let binary =
    Feam_elf.Builder.build
      (Feam_elf.Spec.make ~needed:[ "libm.so.6"; "libc.so.6" ]
         Feam_elf.Types.X86_64)
  in
  Vfs.add (Site.vfs site) "/home/user/plain" (Vfs.Elf binary);
  match run site (Site.base_env site) "/home/user/plain" with
  | Exec.Failure Exec.No_mpi_stack -> ()
  | o -> Alcotest.failf "unexpected: %s" (Exec.outcome_to_string o)

let test_interconnect_unavailable () =
  (* an MVAPICH2/InfiniBand build launched on an Ethernet-only site whose
     admin hand-copied the verbs libraries: linking succeeds, the fabric
     does not *)
  let ib_home, ib_installs =
    Fixtures.small_site ~name:"ibhome"
      ~stacks:(Some [ (Fixtures.mvapich2 Fixtures.intel11, Stack_install.Functioning) ])
      ()
  in
  let install = List.hd ib_installs in
  let path, _ = Fixtures.compiled_binary ib_home ib_installs in
  ignore path;
  let binary_path =
    Result.get_ok
      (Feam_toolchain.Compile.compile_mpi_to ib_home install
         (Feam_toolchain.Compile.program "verbsapp")
         ~dir:"/home/user/bin")
  in
  let eth_target, eth_installs =
    Fixtures.small_site ~name:"ethtarget"
      ~interconnect:Interconnect.Ethernet
      ~stacks:
        (Some
           [
             ( Stack.make ~impl:Impl.Mvapich2 ~impl_version:(v "1.7a2")
                 ~compiler:Fixtures.intel11 ~interconnect:Interconnect.Ethernet,
               Stack_install.Functioning );
           ])
      ()
  in
  (* hand-copy the verbs stack so the link succeeds *)
  List.iter
    (fun (e : Feam_toolchain.Libdb.entry) ->
      let name = Feam_util.Soname.to_string e.soname in
      match Vfs.find_by_basename (Site.vfs ib_home) (String.equal name) with
      | path :: _ ->
        Vfs.add (Site.vfs eth_target) ("/usr/lib64/" ^ name)
          (Option.get (Vfs.find (Site.vfs ib_home) path)).Vfs.kind
      | [] -> Alcotest.failf "%s not installed at the InfiniBand home" name)
    Feam_toolchain.Libdb.infiniband_libs;
  let bytes =
    match Vfs.find (Site.vfs ib_home) binary_path with
    | Some { Vfs.kind = Vfs.Elf b; _ } -> b
    | _ -> assert false
  in
  Vfs.add (Site.vfs eth_target) "/home/user/verbsapp" (Vfs.Elf bytes);
  let env = Fixtures.session_env eth_target (List.hd eth_installs) in
  match run eth_target env "/home/user/verbsapp" with
  | Exec.Failure (Exec.Interconnect_unavailable what) ->
    Alcotest.(check string) "fabric named" "InfiniBand" what
  | o -> Alcotest.failf "unexpected: %s" (Exec.outcome_to_string o)

let test_system_error_reachable () =
  (* a certain sticky system error: the retry policy cannot save it *)
  let site, installs = Fixtures.small_site () in
  let install = List.hd installs in
  let path, _ = Fixtures.compiled_binary site installs in
  ignore install;
  let env = Fixtures.session_env site (List.hd installs) in
  let params = { Exec.p_transient = 0.0; p_sticky = 1.0; p_copy_abi = 0.0 } in
  match run ~params site env path with
  | Exec.Failure (Exec.System_error _) -> ()
  | o -> Alcotest.failf "unexpected: %s" (Exec.outcome_to_string o)

let test_transient_overcome_by_retries () =
  (* transient-only noise: with five attempts the run almost always
     succeeds; verify determinism and that at least this seed's draw
     succeeds *)
  let site, installs = Fixtures.small_site () in
  let path, _ = Fixtures.compiled_binary site installs in
  let env = Fixtures.session_env site (List.hd installs) in
  let params = { Exec.p_transient = 0.3; p_sticky = 0.0; p_copy_abi = 0.0 } in
  let a = Exec.run ~params site env ~binary_path:path ~mode:(Exec.Mpi 4) in
  let b = Exec.run ~params site env ~binary_path:path ~mode:(Exec.Mpi 4) in
  Alcotest.(check string) "deterministic" (Exec.outcome_to_string a)
    (Exec.outcome_to_string b);
  Alcotest.(check string) "retries win" "success" (Exec.outcome_to_string a)

let test_failure_strings_are_informative () =
  (* every failure constructor renders something a user can act on *)
  let checks =
    [
      Exec.Not_executable "x";
      Exec.Wrong_isa
        { binary_machine = Feam_elf.Types.PPC64; site_machine = Feam_elf.Types.X86_64 };
      Exec.Missing_libraries [ "liba.so.1" ];
      Exec.Arch_mismatched_libraries [ "libb.so.1" ];
      Exec.Unsatisfied_versions
        [
          {
            Resolve.vf_object = "o";
            vf_provider = "libc.so.6";
            vf_scope_pos = None;
            vf_version = "GLIBC_2.7";
          };
        ];
      Exec.Interpreter_missing "/lib/ld-linux.so.2";
      Exec.Invalid_process_count { np = 6; rule = "a perfect square" };
      Exec.No_mpi_stack;
      Exec.Stack_misconfigured "w";
      Exec.Abi_incompatibility "w";
      Exec.Floating_point_error "w";
      Exec.Interconnect_unavailable "InfiniBand";
      Exec.System_error `Daemon_spawn;
      Exec.System_error `Timeout;
    ]
  in
  List.iter
    (fun f ->
      Alcotest.(check bool) "non-empty" true
        (String.length (Exec.failure_to_string f) > 5))
    checks

let suite =
  ( "exec-taxonomy",
    [
      Alcotest.test_case "arch-mismatched library" `Quick
        test_arch_mismatched_library_at_exec;
      Alcotest.test_case "unsatisfied versions" `Quick test_unsatisfied_versions_at_exec;
      Alcotest.test_case "no MPI stack" `Quick test_no_mpi_stack_at_exec;
      Alcotest.test_case "interconnect unavailable" `Quick test_interconnect_unavailable;
      Alcotest.test_case "system error reachable" `Quick test_system_error_reachable;
      Alcotest.test_case "transient overcome by retries" `Quick
        test_transient_overcome_by_retries;
      Alcotest.test_case "failure strings" `Quick test_failure_strings_are_informative;
    ] )
