(* Prediction-soundness property (DESIGN §5): on deterministic worlds —
   no injected system errors, healthy stacks, zero copy-ABI fragility —
   FEAM's extended prediction must equal the ground-truth execution
   outcome, for randomly generated site pairs and programs.

   This is the strongest correctness statement about the reproduction:
   whenever the world contains only information FEAM can observe, the
   four determinants plus resolution decide execution exactly. *)

open Feam_util
open Feam_sysmodel
open Feam_mpi

let v = Version.of_string_exn

(* -- random world generation -------------------------------------------------- *)

type world_spec = {
  home_glibc : string;
  target_glibc : string;
  home_gcc : string;
  target_gcc : string;
  home_impl : Impl.t;
  target_impls : Impl.t list;
  program_language : Stack.language;
  program_appetite : string;
}

let gen_world =
  QCheck.Gen.(
    let glibc = oneofl [ "2.3.4"; "2.5"; "2.11.1"; "2.12" ] in
    let gcc = oneofl [ "3.4.6"; "4.1.2"; "4.4.5" ] in
    let impl = oneofl [ Impl.Open_mpi; Impl.Mpich2; Impl.Mvapich2 ] in
    let impls = list_size (int_range 1 3) impl in
    let language = oneofl [ Stack.C; Stack.Fortran ] in
    let appetite = oneofl [ "2.2.5"; "2.3.4"; "2.5"; "2.7" ] in
    glibc >>= fun home_glibc ->
    glibc >>= fun target_glibc ->
    gcc >>= fun home_gcc ->
    gcc >>= fun target_gcc ->
    impl >>= fun home_impl ->
    impls >>= fun target_impls ->
    language >>= fun program_language ->
    appetite >>= fun program_appetite ->
    return
      {
        home_glibc;
        target_glibc;
        home_gcc;
        target_gcc;
        home_impl;
        target_impls;
        program_language;
        program_appetite;
      })

let print_world w =
  Printf.sprintf "home(glibc %s, gcc %s, %s) -> target(glibc %s, gcc %s, [%s]) %s app, appetite %s"
    w.home_glibc w.home_gcc (Impl.name w.home_impl) w.target_glibc w.target_gcc
    (String.concat ";" (List.map Impl.name w.target_impls))
    (match w.program_language with Stack.C -> "C" | Stack.Fortran -> "Fortran")
    w.program_appetite

let batch =
  Batch.make ~queues:[ { Batch.queue_name = "debug"; wait_seconds = 1.0 } ]

let make_stack impl gcc_version =
  Stack.make ~impl ~impl_version:(v "1.4")
    ~compiler:(Compiler.make Compiler.Gnu (v gcc_version))
    ~interconnect:
      (match impl with
      | Impl.Mvapich2 -> Interconnect.Infiniband
      | Impl.Open_mpi | Impl.Mpich2 -> Interconnect.Ethernet)

(* The sites below are built together: one build world. *)
let world = Build_world.create ()

let make_site ~name ~glibc ~gcc ~impls =
  let compiler = Compiler.make Compiler.Gnu (v gcc) in
  let site =
    Site.make ~world ~compilers:[ compiler ] ~seed:1 ~fault_model:Fault_model.none
      ~machine:Feam_elf.Types.X86_64
      ~distro:(Distro.make Distro.Centos ~version:(v "5.6") ~kernel:(v "2.6.18"))
      ~glibc:(v glibc) ~interconnect:Interconnect.Infiniband ~batch name
  in
  let installs =
    Feam_toolchain.Provision.provision_site site
      ~stacks:
        (List.map (fun impl -> (make_stack impl gcc, Stack_install.Functioning)) impls)
  in
  (site, installs)

(* -- the property --------------------------------------------------------------- *)

let check_world w =
  let home, home_installs =
    make_site ~name:"shome" ~glibc:w.home_glibc ~gcc:w.home_gcc
      ~impls:[ w.home_impl ]
  in
  let target, _ =
    make_site ~name:"starget" ~glibc:w.target_glibc ~gcc:w.target_gcc
      ~impls:w.target_impls
  in
  let program =
    Feam_toolchain.Compile.program ~language:w.program_language
      ~glibc_appetite:(v w.program_appetite) "soundapp"
  in
  let home_install = List.hd home_installs in
  match
    Feam_toolchain.Compile.compile_mpi_to home home_install program
      ~dir:"/home/user/apps"
  with
  | Error _ -> QCheck.assume_fail ()
  | Ok home_path ->
    (* the binary must run at home (guaranteed execution environment) *)
    let home_env = Modules_tool.load_stack (Site.base_env home) home_install in
    (match
       Feam_dynlinker.Exec.run home home_env ~binary_path:home_path
         ~mode:(Feam_dynlinker.Exec.Mpi 4)
     with
    | Feam_dynlinker.Exec.Failure _ -> QCheck.assume_fail ()
    | Feam_dynlinker.Exec.Success ->
      (* migrate: full FEAM, extended mode *)
      let config = Feam_core.Config.default in
      Vfs.remove_tree (Site.vfs target) "/tmp/feam";
      let bundle =
        match
          Feam_core.Phases.source_phase config home home_env
            ~binary_path:home_path
        with
        | Ok b -> b
        | Error e -> Alcotest.failf "source phase: %s" e
      in
      let bytes =
        match Vfs.find (Site.vfs home) home_path with
        | Some { Vfs.kind = Vfs.Elf b; _ } -> b
        | _ -> assert false
      in
      Vfs.add (Site.vfs target) "/home/user/migrated/soundapp" (Vfs.Elf bytes);
      let report =
        match
          Feam_core.Phases.target_phase config target (Site.base_env target)
            ~bundle ~binary_path:"/home/user/migrated/soundapp" ()
        with
        | Ok r -> r
        | Error e -> Alcotest.failf "target phase: %s" e
      in
      let prediction = Feam_core.Report.prediction report in
      (* ground truth under FEAM's configuration *)
      let actual =
        match prediction.Feam_core.Predict.verdict with
        | Feam_core.Predict.Ready plan ->
          let install =
            match plan.Feam_core.Predict.chosen_stack_slug with
            | Some slug -> Option.get (Site.find_stack_install target ~slug)
            | None -> Alcotest.fail "ready without stack"
          in
          let env = Modules_tool.load_stack (Site.base_env target) install in
          let env =
            List.fold_left
              (fun e d -> Env.prepend_path e "LD_LIBRARY_PATH" d)
              env plan.Feam_core.Predict.ld_library_path_additions
          in
          Feam_dynlinker.Exec.run target env
            ~binary_path:"/home/user/migrated/soundapp"
            ~mode:(Feam_dynlinker.Exec.Mpi 4)
        | Feam_core.Predict.Not_ready _ -> (
          (* best manual attempt: matching stack, no fixes *)
          let matching =
            Site.stack_installs target
            |> List.find_opt (fun i ->
                   Impl.equal
                     (Stack.impl (Stack_install.stack i))
                     w.home_impl)
          in
          match matching with
          | None -> Feam_dynlinker.Exec.Failure Feam_dynlinker.Exec.No_mpi_stack
          | Some install ->
            let env = Modules_tool.load_stack (Site.base_env target) install in
            Feam_dynlinker.Exec.run target env
              ~binary_path:"/home/user/migrated/soundapp"
              ~mode:(Feam_dynlinker.Exec.Mpi 4))
      in
      let predicted_ready = Feam_core.Predict.is_ready prediction in
      let actually_ran =
        match actual with
        | Feam_dynlinker.Exec.Success -> true
        | Feam_dynlinker.Exec.Failure _ -> false
      in
      if predicted_ready <> actually_ran then
        QCheck.Test.fail_reportf
          "prediction %b but execution %s in world: %s (reasons: %s)"
          predicted_ready
          (Feam_dynlinker.Exec.outcome_to_string actual)
          (print_world w)
          (String.concat "; " (Feam_core.Predict.reasons prediction)));
    true

let prop_soundness =
  QCheck.Test.make ~name:"extended prediction = ground truth on fault-free worlds"
    ~count:60
    (QCheck.make ~print:print_world gen_world)
    check_world

(* Basic prediction is also sound on fault-free worlds: with no hidden
   defects there is nothing only the shipped probes could see, so the
   target phase alone decides execution exactly (up to resolution, which
   basic mode cannot perform — so we compare against the unresolved
   run). *)
let check_world_basic w =
  let home, home_installs =
    make_site ~name:"bhome" ~glibc:w.home_glibc ~gcc:w.home_gcc
      ~impls:[ w.home_impl ]
  in
  let target, _ =
    make_site ~name:"btarget" ~glibc:w.target_glibc ~gcc:w.target_gcc
      ~impls:w.target_impls
  in
  let program =
    Feam_toolchain.Compile.program ~language:w.program_language
      ~glibc_appetite:(v w.program_appetite) "basicapp"
  in
  let home_install = List.hd home_installs in
  match
    Feam_toolchain.Compile.compile_mpi_to home home_install program
      ~dir:"/home/user/apps"
  with
  | Error _ -> QCheck.assume_fail ()
  | Ok home_path ->
    let home_env = Modules_tool.load_stack (Site.base_env home) home_install in
    (match
       Feam_dynlinker.Exec.run home home_env ~binary_path:home_path
         ~mode:(Feam_dynlinker.Exec.Mpi 4)
     with
    | Feam_dynlinker.Exec.Failure _ -> QCheck.assume_fail ()
    | Feam_dynlinker.Exec.Success ->
      let config = Feam_core.Config.default in
      Vfs.remove_tree (Site.vfs target) "/tmp/feam";
      let bytes =
        match Vfs.find (Site.vfs home) home_path with
        | Some { Vfs.kind = Vfs.Elf b; _ } -> b
        | _ -> assert false
      in
      Vfs.add (Site.vfs target) "/home/user/migrated/basicapp" (Vfs.Elf bytes);
      let report =
        match
          Feam_core.Phases.target_phase config target (Site.base_env target)
            ~binary_path:"/home/user/migrated/basicapp" ()
        with
        | Ok r -> r
        | Error e -> Alcotest.failf "target phase: %s" e
      in
      let p = Feam_core.Report.prediction report in
      let chosen =
        match p.Feam_core.Predict.determinants.Feam_core.Predict.stack with
        | Some sc -> sc.Feam_core.Predict.functioning
        | None -> None
      in
      let install =
        match chosen with
        | Some slug -> Site.find_stack_install target ~slug
        | None ->
          List.find_opt
            (fun i ->
              Impl.equal (Stack.impl (Stack_install.stack i)) w.home_impl)
            (Site.stack_installs target)
      in
      let actual =
        match install with
        | None -> Feam_dynlinker.Exec.Failure Feam_dynlinker.Exec.No_mpi_stack
        | Some install ->
          Feam_dynlinker.Exec.run target
            (Modules_tool.load_stack (Site.base_env target) install)
            ~binary_path:"/home/user/migrated/basicapp"
            ~mode:(Feam_dynlinker.Exec.Mpi 4)
      in
      let predicted = Feam_core.Predict.is_ready p in
      let ran = actual = Feam_dynlinker.Exec.Success in
      if predicted <> ran then
        QCheck.Test.fail_reportf
          "basic prediction %b but execution %s in world: %s (reasons: %s)"
          predicted
          (Feam_dynlinker.Exec.outcome_to_string actual)
          (print_world w)
          (String.concat "; " (Feam_core.Predict.reasons p)));
    true

let prop_soundness_basic =
  QCheck.Test.make
    ~name:"basic prediction = ground truth on fault-free worlds" ~count:40
    (QCheck.make ~print:print_world gen_world)
    check_world_basic

let suite =
  ( "soundness",
    [
      QCheck_alcotest.to_alcotest ~long:true prop_soundness;
      QCheck_alcotest.to_alcotest ~long:true prop_soundness_basic;
    ] )
