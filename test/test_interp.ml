(* Tests for the PT_INTERP (dynamic loader) channel: builder/reader
   round trip, provisioning, and the executor's loader check. *)

open Feam_sysmodel

let test_roundtrip () =
  let spec =
    Feam_elf.Spec.make ~needed:[ "libc.so.6" ]
      ~interp:"/lib64/ld-linux-x86-64.so.2" Feam_elf.Types.X86_64
  in
  let bytes = Feam_elf.Builder.build spec in
  let spec' = Feam_elf.Reader.spec (Fixtures.parse_elf bytes) in
  Alcotest.(check bool) "equal" true (spec = spec');
  Alcotest.(check (option string)) "interp" (Some "/lib64/ld-linux-x86-64.so.2")
    spec'.Feam_elf.Spec.interp

let test_default_interp_per_machine () =
  Alcotest.(check string) "x86-64" "/lib64/ld-linux-x86-64.so.2"
    (Feam_elf.Types.default_interp Feam_elf.Types.X86_64);
  Alcotest.(check string) "i386" "/lib/ld-linux.so.2"
    (Feam_elf.Types.default_interp Feam_elf.Types.I386)

let test_loader_provisioned () =
  let site, _ = Fixtures.small_site () in
  Alcotest.(check bool) "loader installed" true
    (Vfs.exists (Site.vfs site) "/lib64/ld-linux-x86-64.so.2")

let test_compiled_binary_names_loader () =
  let site, installs = Fixtures.small_site () in
  let path, _ = Fixtures.compiled_binary site installs in
  match Vfs.find (Site.vfs site) path with
  | Some { Vfs.kind = Vfs.Elf bytes; _ } ->
    let spec = Result.get_ok (Feam_elf.Reader.spec_of_bytes bytes) in
    Alcotest.(check (option string)) "interp" (Some "/lib64/ld-linux-x86-64.so.2")
      spec.Feam_elf.Spec.interp
  | _ -> Alcotest.fail "no binary"

let test_objdump_shows_interp () =
  let site, installs = Fixtures.small_site () in
  let path, _ = Fixtures.compiled_binary site installs in
  let out = Result.get_ok (Utilities.objdump_p site path) in
  Alcotest.(check bool) "interpreter line" true
    (Str_split.contains ~sub:"Requesting program interpreter" out)

let test_exec_missing_loader () =
  (* A 32-bit x86 binary passes the ISA rule on an x86-64 site, but dies
     when /lib/ld-linux.so.2 is absent — the real-world failure mode. *)
  let site, installs = Fixtures.small_site () in
  let install = List.hd installs in
  let i386_binary =
    Feam_elf.Builder.build
      (Feam_elf.Spec.make ~needed:[ "libc.so.6" ]
         ~interp:"/lib/ld-linux.so.2" Feam_elf.Types.I386)
  in
  Vfs.add (Site.vfs site) "/home/user/old32bit" (Vfs.Elf i386_binary);
  let env = Fixtures.session_env site install in
  match
    Feam_dynlinker.Exec.run ~params:Fault_model.none site env
      ~binary_path:"/home/user/old32bit" ~mode:(Feam_dynlinker.Exec.Mpi 2)
  with
  | Feam_dynlinker.Exec.Failure (Feam_dynlinker.Exec.Interpreter_missing p) ->
    Alcotest.(check string) "which loader" "/lib/ld-linux.so.2" p
  | o -> Alcotest.failf "unexpected: %s" (Feam_dynlinker.Exec.outcome_to_string o)

let test_exec_with_loader_present () =
  (* installing the 32-bit loader moves the failure past the loader check
     (on to the missing 32-bit libraries) *)
  let site, installs = Fixtures.small_site () in
  let install = List.hd installs in
  let loader =
    Feam_elf.Builder.build
      (Feam_elf.Spec.make ~file_type:Feam_elf.Types.ET_DYN
         ~soname:"ld-linux.so.2" Feam_elf.Types.I386)
  in
  Vfs.add (Site.vfs site) "/lib/ld-linux.so.2" (Vfs.Elf loader);
  let i386_binary =
    Feam_elf.Builder.build
      (Feam_elf.Spec.make ~needed:[ "libmissing32.so.1" ]
         ~interp:"/lib/ld-linux.so.2" Feam_elf.Types.I386)
  in
  Vfs.add (Site.vfs site) "/home/user/old32bit" (Vfs.Elf i386_binary);
  let env = Fixtures.session_env site install in
  match
    Feam_dynlinker.Exec.run ~params:Fault_model.none site env
      ~binary_path:"/home/user/old32bit" ~mode:(Feam_dynlinker.Exec.Mpi 2)
  with
  | Feam_dynlinker.Exec.Failure (Feam_dynlinker.Exec.Missing_libraries _) -> ()
  | o -> Alcotest.failf "unexpected: %s" (Feam_dynlinker.Exec.outcome_to_string o)

let test_shared_library_has_no_interp () =
  let site, _ = Fixtures.small_site () in
  match Vfs.find (Site.vfs site) "/lib64/libm.so.6" with
  | Some { Vfs.kind = Vfs.Elf bytes; _ } ->
    let spec = Result.get_ok (Feam_elf.Reader.spec_of_bytes bytes) in
    Alcotest.(check (option string)) "no interp" None spec.Feam_elf.Spec.interp
  | _ -> Alcotest.fail "no libm"

let suite =
  ( "interp",
    [
      Alcotest.test_case "roundtrip" `Quick test_roundtrip;
      Alcotest.test_case "default per machine" `Quick test_default_interp_per_machine;
      Alcotest.test_case "loader provisioned" `Quick test_loader_provisioned;
      Alcotest.test_case "binary names loader" `Quick test_compiled_binary_names_loader;
      Alcotest.test_case "objdump shows interp" `Quick test_objdump_shows_interp;
      Alcotest.test_case "exec missing loader" `Quick test_exec_missing_loader;
      Alcotest.test_case "exec with loader present" `Quick test_exec_with_loader_present;
      Alcotest.test_case "libraries have no interp" `Quick test_shared_library_has_no_interp;
    ] )
