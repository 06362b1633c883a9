(* Tests for the site-ranking decision aid. *)

open Feam_sysmodel
open Feam_evalharness

let bundle_from home home_installs =
  let path, install =
    Fixtures.compiled_binary ~program:Fixtures.fortran_program home home_installs
  in
  let env = Fixtures.session_env home install in
  Fixtures.run_exn
    (Feam_core.Phases.source_phase Feam_core.Config.default home env
       ~binary_path:path)

let make_target ~name ~wait ~glibc =
  let batch =
    Batch.make ~queues:[ { Batch.queue_name = "debug"; wait_seconds = wait } ]
  in
  let site =
    Site.make ~world:Fixtures.world ~compilers:[ Fixtures.gnu412 ] ~seed:4
      ~fault_model:Fault_model.none ~machine:Feam_elf.Types.X86_64
      ~distro:
        (Distro.make Distro.Centos
           ~version:(Feam_util.Version.of_string_exn "5.6")
           ~kernel:(Feam_util.Version.of_string_exn "2.6.18"))
      ~glibc:(Feam_util.Version.of_string_exn glibc)
      ~interconnect:Feam_mpi.Interconnect.Infiniband ~batch name
  in
  let _ =
    Feam_toolchain.Provision.provision_site site
      ~stacks:[ (Fixtures.ompi14 Fixtures.gnu412, Stack_install.Functioning) ]
  in
  site

let test_ready_sites_first_and_ordered () =
  let home, home_installs = Fixtures.small_site ~name:"rankhome" () in
  let bundle = bundle_from home home_installs in
  let fast = make_target ~name:"fastq" ~wait:5.0 ~glibc:"2.5" in
  let slow = make_target ~name:"slowq" ~wait:2000.0 ~glibc:"2.5" in
  (* a blocked site: glibc too old for nothing... use a site with no
     matching MPI impl instead *)
  let blocked =
    let site =
      Site.make ~world:Fixtures.world ~compilers:[ Fixtures.gnu412 ] ~seed:4
        ~fault_model:Fault_model.none ~machine:Feam_elf.Types.X86_64
        ~distro:
          (Distro.make Distro.Centos
             ~version:(Feam_util.Version.of_string_exn "5.6")
             ~kernel:(Feam_util.Version.of_string_exn "2.6.18"))
        ~glibc:(Feam_util.Version.of_string_exn "2.5")
        ~interconnect:Feam_mpi.Interconnect.Infiniband
        ~batch:Fixtures.default_batch "blockedsite"
    in
    let _ =
      Feam_toolchain.Provision.provision_site site
        ~stacks:[ (Fixtures.mpich2 Fixtures.gnu412, Stack_install.Functioning) ]
    in
    site
  in
  let ranked =
    Ranking.rank Feam_core.Config.default bundle [ slow; blocked; fast ]
  in
  Alcotest.(check int) "three entries" 3 (List.length ranked);
  (match ranked with
  | first :: second :: third :: _ ->
    Alcotest.(check string) "fast queue first" "fastq" first.Ranking.rank_site;
    Alcotest.(check string) "slow queue second" "slowq" second.Ranking.rank_site;
    Alcotest.(check bool) "blocked last" false third.Ranking.ready;
    Alcotest.(check bool) "blocker reported" true (third.Ranking.blocking_reason <> None);
    Alcotest.(check bool) "ordering metric" true
      (Ranking.time_to_first_result first < Ranking.time_to_first_result second)
  | _ -> Alcotest.fail "wrong shape");
  Alcotest.(check bool) "table renders" true
    (String.length (Feam_util.Table.render (Ranking.table ranked)) > 0)

let suite =
  ( "ranking",
    [
      Alcotest.test_case "ready first, by time to result" `Quick
        test_ready_sites_first_and_ordered;
    ] )
