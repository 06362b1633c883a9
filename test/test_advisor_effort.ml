(* Tests for the future-work extensions: the migration-strategy advisor
   and the user-effort model. *)

open Feam_sysmodel
open Feam_core

let config = Config.default

let fortran_source =
  Feam_toolchain.Compile.program ~language:Feam_mpi.Stack.Fortran
    ~binary_size_mb:2.0 "cfdapp"

(* home (gcc 4.1, glibc 2.5) and two targets: one where the binary works,
   one where only recompilation can. *)
let world () =
  let home, home_installs = Fixtures.small_site ~name:"home" () in
  let home_path, home_install =
    Fixtures.compiled_binary ~program:fortran_source home home_installs
  in
  (home, home_path, home_install)

let predict_at home home_path home_install target ~with_bundle =
  Vfs.remove_tree (Site.vfs target) "/tmp/feam";
  let bundle =
    if with_bundle then
      let env = Fixtures.session_env home home_install in
      Some (Fixtures.run_exn (Phases.source_phase config home env ~binary_path:home_path))
    else None
  in
  let bytes =
    match Vfs.find (Site.vfs home) home_path with
    | Some { Vfs.kind = Vfs.Elf b; _ } -> b
    | _ -> Alcotest.fail "no bytes"
  in
  Vfs.add (Site.vfs target) "/home/user/migrated/app" (Vfs.Elf bytes);
  let report =
    Fixtures.run_exn
      (Phases.target_phase config target (Site.base_env target) ?bundle
         ~binary_path:"/home/user/migrated/app" ())
  in
  Report.prediction report

let test_advisor_prefers_ready_binary () =
  let home, home_path, home_install = world () in
  let target, _ = Fixtures.small_site ~name:"goodtarget" () in
  let p = predict_at home home_path home_install target ~with_bundle:true in
  let advice =
    Advisor.advise target ~binary_prediction:p ~source:(Some fortran_source)
  in
  match advice.Advisor.strategy with
  | Advisor.Use_binary _ -> ()
  | s -> Alcotest.failf "expected Use_binary, got %s" (Advisor.strategy_to_string s)

let test_advisor_recommends_recompile () =
  let home, home_path, home_install = world () in
  (* target whose C library is too old for the binary but which has a
     working toolchain: recompilation is the way *)
  let home12, installs12 = Fixtures.small_site ~name:"home12" ~glibc:"2.12" () in
  let hungry =
    Feam_toolchain.Compile.program
      ~glibc_appetite:(Feam_util.Version.of_string_exn "2.7")
      "hungryapp"
  in
  let path12, install12 = Fixtures.compiled_binary ~program:hungry home12 installs12 in
  ignore (home, home_path, home_install);
  let target, _ = Fixtures.small_site ~name:"oldt" ~glibc:"2.5" () in
  let p = predict_at home12 path12 install12 target ~with_bundle:true in
  Alcotest.(check bool) "binary not ready" false (Predict.is_ready p);
  let advice = Advisor.advise target ~binary_prediction:p ~source:(Some hungry) in
  match advice.Advisor.strategy with
  | Advisor.Recompile check ->
    Alcotest.(check bool) "estimate positive" true
      (check.Advisor.rc_estimate_seconds > 0.0)
  | s -> Alcotest.failf "expected Recompile, got %s" (Advisor.strategy_to_string s)

let test_advisor_not_viable_without_source () =
  let home12, installs12 = Fixtures.small_site ~name:"home12b" ~glibc:"2.12" () in
  let hungry =
    Feam_toolchain.Compile.program
      ~glibc_appetite:(Feam_util.Version.of_string_exn "2.7")
      "hungryapp"
  in
  let path12, install12 = Fixtures.compiled_binary ~program:hungry home12 installs12 in
  let target, _ = Fixtures.small_site ~name:"oldt2" ~glibc:"2.5" () in
  let p = predict_at home12 path12 install12 target ~with_bundle:true in
  let advice = Advisor.advise target ~binary_prediction:p ~source:None in
  match advice.Advisor.strategy with
  | Advisor.Not_viable reasons ->
    Alcotest.(check bool) "reasons carried" true (reasons <> [])
  | s -> Alcotest.failf "expected Not_viable, got %s" (Advisor.strategy_to_string s)

let test_recompile_needs_toolchain () =
  let target, _ =
    Fixtures.small_site ~name:"notoolchain"
      ~tools:({ Tools.full with Tools.c_compiler = false }) ()
  in
  let advice =
    Advisor.advise target ~binary_prediction:(Fixtures.not_ready "binary fails")
      ~source:(Some fortran_source)
  in
  Alcotest.(check bool) "no rebuild considered" true
    (advice.Advisor.considered_recompile = None);
  match advice.Advisor.strategy with
  | Advisor.Not_viable _ ->
    Alcotest.(check bool) "rationale names the rebuild" true
      (Str_split.contains ~sub:"cannot rebuild" advice.Advisor.rationale)
  | s -> Alcotest.failf "expected Not_viable, got %s" (Advisor.strategy_to_string s)

let test_recompile_skips_misconfigured () =
  let target, _ =
    Fixtures.small_site ~name:"brokenstack"
      ~stacks:
        (Some
           [
             ( Fixtures.ompi14 Fixtures.gnu412,
               Stack_install.Misconfigured "broken" );
           ])
      ()
  in
  match
    (Advisor.advise target ~binary_prediction:(Fixtures.not_ready "binary fails")
       ~source:(Some fortran_source))
      .Advisor.considered_recompile
  with
  | None -> ()
  | Some check -> Alcotest.failf "unexpected viability via %s" check.Advisor.rc_stack_slug

(* -- Effort model ----------------------------------------------------------- *)

let fake_migration ~before ~after : Feam_evalharness.Migrate.migration =
  let home, installs = Fixtures.small_site ~name:"ehome" () in
  let path, install = Fixtures.compiled_binary home installs in
  let binary =
    {
      Feam_evalharness.Testset.id = "NAS/fake@ehome/x";
      benchmark = List.hd Feam_suites.Npb.all;
      home;
      install;
      home_path = path;
      bytes = "";
      image = Feam_elf.Reader.image "";
      declared_size = 0;
    }
  in
  {
    Feam_evalharness.Migrate.binary;
    target_name = "t";
    basic_ready = true;
    basic_reasons = [];
    extended_ready = true;
    extended_reasons = [];
    staged_copies = [];
    actual_before = before;
    actual_after = after;
  }

(* A row of the rendered effort table, NAS column: the fake migrations
   are NAS binaries. *)
let effort_cell migrations row =
  let text = Feam_util.Table.render (Feam_evalharness.Effort.table migrations) in
  match
    List.find_map
      (fun line ->
        match
          String.split_on_char '|' line |> List.map String.trim
          |> List.filter (fun c -> c <> "")
        with
        | label :: nas :: _ when label = row -> Some nas
        | _ -> None)
      (String.split_on_char '\n' text)
  with
  | Some cell -> cell
  | None -> Alcotest.failf "no %S row in:\n%s" row text

(* Minutes of effort one migration costs: sixty copies make the table's
   hours read as minutes. *)
let effort_minutes row m =
  float_of_string (effort_cell (List.init 60 (fun _ -> m)) row)

let test_effort_ordering () =
  let open Feam_dynlinker.Exec in
  let clean = fake_migration ~before:Success ~after:Success in
  let rescued =
    fake_migration ~before:(Failure (Missing_libraries [ "libx.so.1" ])) ~after:Success
  in
  let hopeless =
    fake_migration
      ~before:(Failure (Missing_libraries [ "libx.so.1" ]))
      ~after:(Failure (Missing_libraries [ "libx.so.1" ]))
  in
  let e = effort_minutes "Manual effort (hours)" in
  Alcotest.(check bool) "rescued costs more than clean" true (e rescued > e clean);
  Alcotest.(check bool) "hopeless costs most" true (e hopeless > e rescued);
  (* FEAM effort is flat and much smaller *)
  let f = effort_minutes "FEAM effort (hours)" in
  Alcotest.(check bool) "feam flat" true (f clean = f hopeless);
  Alcotest.(check bool) "feam cheaper" true (f hopeless < e clean)

let test_effort_summary () =
  let open Feam_dynlinker.Exec in
  let migrations =
    [
      fake_migration ~before:Success ~after:Success;
      fake_migration
        ~before:(Failure (Missing_libraries [ "l" ]))
        ~after:Success;
    ]
  in
  Alcotest.(check string) "count" "2" (effort_cell migrations "Migrations");
  let gain = effort_cell migrations "Efficiency gain" in
  Alcotest.(check bool) "gain > 1" true
    (float_of_string (String.sub gain 0 (String.length gain - 1)) > 1.0);
  (* the table renders *)
  let table = Feam_evalharness.Effort.table migrations in
  Alcotest.(check bool) "renders" true
    (String.length (Feam_util.Table.render table) > 0)

let suite =
  ( "advisor-effort",
    [
      Alcotest.test_case "advisor prefers ready binary" `Quick
        test_advisor_prefers_ready_binary;
      Alcotest.test_case "advisor recommends recompile" `Quick
        test_advisor_recommends_recompile;
      Alcotest.test_case "advisor not viable without source" `Quick
        test_advisor_not_viable_without_source;
      Alcotest.test_case "recompile needs toolchain" `Quick test_recompile_needs_toolchain;
      Alcotest.test_case "recompile skips misconfigured" `Quick
        test_recompile_skips_misconfigured;
      Alcotest.test_case "effort ordering" `Quick test_effort_ordering;
      Alcotest.test_case "effort summary" `Quick test_effort_summary;
    ] )
