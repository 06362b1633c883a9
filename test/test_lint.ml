(* Golden tests for the `feam lint` static-analysis pass: a clean
   source-phase bundle produces no findings (exit 0), and a hand-built
   dirty bundle trips the rule set with exactly the expected text and
   JSON output. *)

open Feam_util
open Feam_core
open Feam_analysis

let v = Version.of_string_exn

(* -- fixtures ---------------------------------------------------------- *)

let description ?soname ?(needed = []) ?rpath ?(verneeds = [])
    ?(machine = Feam_elf.Types.X86_64) ?(elf_class = Feam_elf.Types.C64) path =
  {
    Description.path;
    file_format = "elf64-x86-64";
    machine;
    elf_class;
    soname;
    needed;
    rpath;
    runpath = None;
    verneeds;
    required_glibc = Description.required_glibc_of_verneeds verneeds;
    mpi = None;
    provenance = { Objdump_parse.compiler_banner = None; build_os = None };
  }

let discovery =
  {
    Discovery.env_type = `Guaranteed;
    machine = Some Feam_elf.Types.X86_64;
    elf_class = Some Feam_elf.Types.C64;
    os = Some "CentOS 5.6";
    kernel = Some "2.6.18";
    glibc = Some (v "2.5");
    stacks = [];
    current_stack = None;
  }

let image ?soname ?(needed = []) ?rpath ?verneeds ?verdefs ?dynsyms ?interp
    ?(file_type = Feam_elf.Types.ET_DYN) ?(machine = Feam_elf.Types.X86_64) ()
    =
  Feam_elf.Builder.build
    (Feam_elf.Spec.make ~file_type ?soname ~needed ?rpath ?verneeds ?verdefs
       ?dynsyms ?interp machine)

let import ?version ?(binding = Feam_elf.Spec.Global) name =
  {
    Feam_elf.Spec.sym_name = name;
    sym_defined = false;
    sym_binding = binding;
    sym_version = version;
  }

let export ?version name =
  {
    Feam_elf.Spec.sym_name = name;
    sym_defined = true;
    sym_binding = Feam_elf.Spec.Global;
    sym_version = version;
  }

let copy ~request ~origin ~description:d bytes =
  {
    Bdc.copy_request = request;
    copy_origin_path = origin;
    copy_image = Feam_elf.Reader.image bytes;
    copy_declared_size = String.length bytes;
    copy_description = d;
  }

(* A bundle with seeded defects: an unconventional loader, a relative
   and a shadowing RPATH, an unknown and a too-new glibc binding, a
   malformed DT_NEEDED name, a copy whose recorded description is for
   another machine, a major-version conflict, a dependency cycle,
   stale unlocatable bookkeeping — and, at the symbol level, a strong
   and a weak import the staged copies fail to export despite
   satisfying every soname, plus one symbol two copies both define. *)
let dirty_bundle () =
  let root_needed =
    [ "libfoo.so.1"; "libbar.so.2"; "libbogus.so.1abc"; "libc.so.6" ]
  in
  let root_verneeds =
    [
      ("libc.so.6", [ "GLIBC_2.2.5"; "GLIBC_2.12"; "GLIBC_2.99" ]);
      ("libfoo.so.1", [ "FOO_2.0" ]);
      ("libbar.so.2", [ "BAR_2.0" ]);
    ]
  in
  let root_rpath = "../libs:/home/user/oldlibs" in
  let root_bytes =
    image ~needed:root_needed ~rpath:root_rpath
      ~verneeds:
        (List.map
           (fun (vn_file, vn_versions) -> { Feam_elf.Spec.vn_file; vn_versions })
           root_verneeds)
      ~dynsyms:
        [
          import "shared_sym";
          import ~version:"FOO_2.0" "foo_feature_r9";
          import ~version:"BAR_2.0" ~binding:Feam_elf.Spec.Weak "bar_weak";
        ]
      ~interp:"/lib/ld-weird.so.1" ~file_type:Feam_elf.Types.ET_EXEC ()
  in
  let foo_bytes =
    image
      ~soname:(Soname.make ~version:[ 1 ] "libfoo" |> Soname.to_string)
      ~needed:[ "libbar.so.2"; "libc.so.6" ]
      ~verdefs:[ "libfoo.so.1"; "FOO_1.0" ]
      ~dynsyms:[ export ~version:"FOO_1.0" "foo_init"; export "shared_sym" ]
      ()
  in
  let bar_bytes =
    image
      ~soname:(Soname.make ~version:[ 2 ] "libbar" |> Soname.to_string)
      ~needed:[ "libfoo.so.2"; "libfoo.so.1"; "libc.so.6" ]
      ~verdefs:[ "libbar.so.2" ]
      ~dynsyms:[ export "shared_sym" ] ()
  in
  {
    Bundle.created_at = "home";
    binary_description =
      description ~needed:root_needed ~rpath:root_rpath
        ~verneeds:root_verneeds "/home/user/bin/app";
    binary_image = Some (Feam_elf.Reader.image root_bytes);
    binary_declared_size = String.length root_bytes;
    copies =
      [
        copy ~request:"libfoo.so.1" ~origin:"/usr/lib64/libfoo.so.1"
          ~description:
            (description
               ~soname:(Soname.make ~version:[ 1 ] "libfoo")
               ~needed:[ "libbar.so.2"; "libc.so.6" ]
               ~machine:Feam_elf.Types.PPC64 "/usr/lib64/libfoo.so.1")
          foo_bytes;
        copy ~request:"libbar.so.2" ~origin:"/usr/lib64/libbar.so.2"
          ~description:
            (description
               ~soname:(Soname.make ~version:[ 2 ] "libbar")
               ~needed:[ "libfoo.so.2"; "libfoo.so.1"; "libc.so.6" ]
               "/usr/lib64/libbar.so.2")
          bar_bytes;
      ];
    unlocatable = [ "libwidget.so.3"; "libbar.so.2" ];
    probes =
      [
        (* a probe whose name would escape the staging directory *)
        (let probe_bytes = image () in
         {
           Bundle.probe_name = "../hello_mpi";
           probe_image = Feam_elf.Reader.image probe_bytes;
           probe_stack_slug = "openmpi-1.4.3";
           probe_declared_size = String.length probe_bytes;
         });
      ];
    source_discovery = discovery;
  }

let dirty_context () =
  Context.of_bundle
    ~target:
      (Context.make_target ~name:"india" ~machine:Feam_elf.Types.X86_64
         ~glibc:(v "2.5") ())
    (dirty_bundle ())

(* A genuine source-phase bundle headed to a compatible site. *)
let clean_context () =
  let home, installs = Fixtures.small_site ~name:"linthome" () in
  let path, install =
    Fixtures.compiled_binary ~program:Fixtures.fortran_program home installs
  in
  let env = Fixtures.session_env home install in
  let bundle =
    Fixtures.run_exn
      (Phases.source_phase Config.default home env ~binary_path:path)
  in
  let target, _ = Fixtures.small_site ~name:"linttarget" ~glibc:"2.12" () in
  Context.of_bundle ~target:(Context.target_of_site target) bundle

(* -- tests -------------------------------------------------------------- *)

let test_clean_bundle () =
  let ctx = clean_context () in
  let findings = Engine.run ctx in
  Alcotest.(check int) "no findings" 0 (List.length findings);
  Alcotest.(check int) "exit code" 0 (Result.get_ok (Engine.gate ~fail_on:"warn" findings));
  Alcotest.(check string) "summary" "0 errors, 0 warnings, 0 info"
    (Engine.summary findings)

let expected_dirty_text =
  {golden|feam lint: /home/user/bin/app (bundled at home, 2 copies, 1 probes) -> india
error bundle-entry-unsafe   ../hello_mpi: probe name "../hello_mpi" contains a ".." path component and would escape the staging directory
      fix: strip the directory components from the entry name
error glibc-verneed         /home/user/bin/app: requires symbol version GLIBC_2.12 from libc.so.6 but the target provides glibc 2.5
      fix: rebuild on a system with glibc <= 2.5, or migrate to a site providing glibc >= 2.12
error glibc-verneed         /home/user/bin/app: requires symbol version GLIBC_2.99 from libc.so.6 but the target provides glibc 2.5
      fix: rebuild on a system with glibc <= 2.5, or migrate to a site providing glibc >= 2.99
error isa-mismatch          libfoo.so.1: bundled copy is ppc64/64-bit but the application is x86_64/64-bit; the loader will reject it
      fix: replace the copy with a x86_64/64-bit build from a matching site
error rpath-escape          /home/user/bin/app: relative DT_RPATH entry "../libs" resolves against the working directory at the target
      fix: relink with an absolute DT_RPATH
error soname-major-conflict libfoo.so: the closure mixes incompatible major versions .1, .2 (.1: libfoo.so.1 (provides); .1: libfoo.so.1 (required by /home/user/bin/app); .2: libfoo.so.2 (required by libbar.so.2); .1: libfoo.so.1 (required by libbar.so.2))
      fix: align the closure on a single major version of libfoo, or drop the stale copies from the bundle
error stale-bundle          libfoo.so.1: recorded description is stale for the embedded image: machine (recorded ppc64, image x86_64)
      fix: re-run the source phase to regenerate the bundle
error symbol-unresolved     foo_feature_r9@FOO_2.0: imported by /home/user/bin/app but exported by no object in the staged closure (consulted libfoo.so.1)
      fix: re-stage a copy that exports the symbol from a site where the binary runs (feam symcheck prints the full bind log)
warn  dep-cycle             libbar.so.2: dependency cycle libbar.so.2 -> libfoo.so.1 -> libbar.so.2: the staged copies will initialize in an order the source site never exercised
warn  glibc-verneed         /home/user/bin/app: GLIBC_2.99 from libc.so.6 is not a known glibc release; the binding can never be satisfied by a stock C library
warn  interp-mismatch       /home/user/bin/app: PT_INTERP requests /lib/ld-weird.so.1 but the conventional x86_64 loader is /lib64/ld-linux-x86-64.so.2
      fix: relink against the standard loader, or ensure /lib/ld-weird.so.1 exists at every target
warn  rpath-escape          /home/user/bin/app: DT_RPATH entry /home/user/oldlibs precedes LD_LIBRARY_PATH and points outside the bundle: it can shadow the staged library copies at the target
      fix: relink with DT_RUNPATH (or no run path) so the staged copies on LD_LIBRARY_PATH keep precedence
warn  soname-major-unsound  libfoo.so.1: satisfies the soname requirement of /home/user/bin/app yet does not export foo_feature_r9@FOO_2.0: the soname-major acceptance is unsound here
      fix: trust the symbol-level verdict over the soname match: re-stage the provider from a build that exports the symbols
warn  soname-parse          libbogus.so.1abc: DT_NEEDED entry of /home/user/bin/app does not parse as a shared-object name: non-numeric version component "1abc"
      fix: rename the library to the lib<base>.so.<major>[.<minor>] convention so version compatibility can be checked
warn  symbol-interposed     shared_sym: defined by libfoo.so.1 and also by libbar.so.2: the first definition in scope order interposes the rest
      fix: keep a single provider of the symbol in the bundle so binding does not depend on scope order
warn  unresolved-missing    libbogus.so.1abc: required by /home/user/bin/app but neither bundled nor recorded as unlocatable: the source-phase manifest is incomplete
      fix: re-run the source phase to complete the closure
warn  unresolved-missing    libfoo.so.2: required by libbar.so.2 but neither bundled nor recorded as unlocatable: the source-phase manifest is incomplete
      fix: re-run the source phase to complete the closure
warn  unresolved-missing    libwidget.so.3: no bundled copy: execution readiness depends entirely on the target site providing it
      fix: obtain a copy from a site where the binary runs and re-bundle (FEAM's source phase automates this)
info  symbol-unresolved     bar_weak@BAR_2.0: imported by /home/user/bin/app but exported by no object in the staged closure (consulted libbar.so.2)
      fix: re-stage a copy that exports the symbol from a site where the binary runs (feam symcheck prints the full bind log)
info  unresolved-missing    libbar.so.2: recorded as unlocatable at the source, yet the bundle carries a copy that satisfies it
      fix: re-run the source phase to refresh the bundle manifest
8 errors, 10 warnings, 2 info
|golden}

let test_dirty_text_golden () =
  let ctx = dirty_context () in
  let findings = Engine.run ctx in
  Alcotest.(check string) "lint text" expected_dirty_text
    (Engine.render_text ctx findings);
  Alcotest.(check int) "exit code" 2 (Result.get_ok (Engine.gate ~fail_on:"warn" findings))

let test_dirty_rule_coverage () =
  (* every registered cell rule fires on the dirty fixture (fleet rules
     check the whole-matrix view, not one bundle) *)
  let ctx = dirty_context () in
  let findings = Engine.run ctx in
  let fired =
    List.sort_uniq compare
      (List.map (fun f -> f.Diagnose.rule_id) findings)
  in
  Alcotest.(check (list string)) "all cell rules fire" (Registry.cell_ids ())
    fired

let test_dirty_json_golden () =
  let ctx = dirty_context () in
  let findings = Engine.run ctx in
  let json = Engine.to_json ctx findings in
  (* the rendered JSON must parse back with Feam_util.Json *)
  let parsed = Fixtures.run_exn (Json.parse (Json.render json)) in
  let member name = Option.get (Json.member name parsed) in
  Alcotest.(check (option string)) "binary" (Some "/home/user/bin/app")
    (Json.to_string_opt (member "binary"));
  let summary = member "summary" in
  let count k = Json.to_int_opt (Option.get (Json.member k summary)) in
  let at level =
    List.length (List.filter (fun f -> f.Diagnose.level = level) findings)
  in
  Alcotest.(check (option int)) "errors" (Some (at Diagnose.Error)) (count "errors");
  Alcotest.(check (option int)) "warnings" (Some (at Diagnose.Warn))
    (count "warnings");
  Alcotest.(check (option int)) "exit code" (Some 2) (count "exit_code");
  let listed = Option.get (Json.to_list_opt (member "findings")) in
  Alcotest.(check int) "finding count" (List.length findings) (List.length listed);
  (* findings JSON carries the rule ids in report order *)
  let ids =
    List.filter_map
      (fun f -> Option.bind (Json.member "rule" f) Json.to_string_opt)
      listed
  in
  Alcotest.(check (list string)) "rule ids" (List.map (fun f -> f.Diagnose.rule_id) findings) ids

(* Findings reach the user as remediation in the report: each finding
   with a fixit renders a fix line naming it. *)
let test_remedies_from_findings () =
  let ctx = dirty_context () in
  let findings = Engine.run ctx in
  let text =
    Report.render
      (Report.make ~findings ~site_name:"india" ~binary:"/home/user/bin/app"
         (Fixtures.not_ready "lint fixture"))
  in
  let fixits = List.filter_map (fun f -> f.Diagnose.fixit) findings in
  Alcotest.(check bool) "some findings carry a fixit" true (fixits <> []);
  List.iter
    (fun fix ->
      Alcotest.(check bool) ("fix rendered: " ^ fix) true
        (Feam_sysmodel.Str_split.contains ~sub:("fix: " ^ fix) text))
    fixits;
  Alcotest.(check int) "one fix line per fixit" (List.length fixits)
    (List.length
       (List.filter
          (fun l -> String.starts_with ~prefix:"fix: " (String.trim l))
          (String.split_on_char '\n' text)))

let test_report_carries_findings () =
  let ctx = dirty_context () in
  let findings = Engine.run ctx in
  let prediction = (Fixtures.not_ready "lint fixture") in
  let report =
    Report.make ~findings ~site_name:"india" ~binary:"/home/user/bin/app"
      prediction
  in
  let text = Report.render report in
  Alcotest.(check bool) "lint section present" true
    (Feam_sysmodel.Str_split.contains ~sub:"static analysis findings:" text);
  Alcotest.(check bool) "finding rendered" true
    (Feam_sysmodel.Str_split.contains ~sub:"soname-major-conflict" text);
  let json = Fixtures.run_exn (Json.parse (Json.render (Report.to_json report))) in
  match Json.member "lint" json with
  | Some (Json.List l) ->
    Alcotest.(check int) "json lint entries" (List.length findings) (List.length l)
  | _ -> Alcotest.fail "report JSON lacks a lint list"

(* -- the --fail-on gate ------------------------------------------------- *)

let test_gate () =
  let finding level =
    {
      Diagnose.level;
      rule_id = "isa-mismatch";
      subject = "app";
      message = "m";
      fixit = None;
    }
  in
  let errors = [ finding Diagnose.Error ] in
  let warnings = [ finding Diagnose.Warn ] in
  Alcotest.(check (result int string)) "warn gates warnings" (Ok 1)
    (Engine.gate ~fail_on:"warn" warnings);
  Alcotest.(check (result int string)) "warn gates errors" (Ok 2)
    (Engine.gate ~fail_on:"warn" errors);
  Alcotest.(check (result int string)) "error passes warnings" (Ok 0)
    (Engine.gate ~fail_on:"error" warnings);
  Alcotest.(check (result int string)) "error gates errors" (Ok 2)
    (Engine.gate ~fail_on:"error" errors);
  Alcotest.(check (result int string)) "never passes everything" (Ok 0)
    (Engine.gate ~fail_on:"never" errors);
  (* the regression: an unknown severity must be rejected with a usage
     message naming the valid set, never treated as the default *)
  match Engine.gate ~fail_on:"eror" errors with
  | Ok _ -> Alcotest.fail "unknown --fail-on level silently accepted"
  | Error msg ->
    List.iter
      (fun level ->
        Alcotest.(check bool)
          (Printf.sprintf "usage message names %S" level)
          true
          (Feam_sysmodel.Str_split.contains ~sub:level msg))
      [ "warn"; "error"; "never" ]

(* -- registry-derived docs ---------------------------------------------- *)

let test_registry_count () =
  Alcotest.(check int) "count matches the registered rules"
    (List.length (Registry.all ()))
    (Registry.count ())

(* The registry as the README's markdown rule table. *)
let markdown_rule_table () =
  "| Rule | Tier | Default level | Checks |\n|---|---|---|---|\n"
  ^ String.concat ""
      (List.map
         (fun r ->
           Printf.sprintf "| `%s` | %s | %s | %s |\n" r.Rule.id (Rule.tier r)
             (Feam_core.Diagnose.level_to_string r.Rule.default_level)
             r.Rule.title)
         (Registry.all ()))

(* The README rule table is generated from the registry; re-derive it
   and compare the table region byte-for-byte so docs cannot drift from
   the code (the drift this test exists for: a 12-row table against 13
   registered rules). *)
let test_readme_table_in_sync () =
  let readme =
    In_channel.with_open_text "../README.md" In_channel.input_all
  in
  let expected = markdown_rule_table () in
  Alcotest.(check bool)
    "README contains the registry-derived rule table verbatim" true
    (Feam_sysmodel.Str_split.contains ~sub:expected readme)

let suite =
  ( "lint",
    [
      Alcotest.test_case "clean bundle is clean" `Quick test_clean_bundle;
      Alcotest.test_case "dirty text golden" `Quick test_dirty_text_golden;
      Alcotest.test_case "dirty fires every rule" `Quick test_dirty_rule_coverage;
      Alcotest.test_case "dirty json golden" `Quick test_dirty_json_golden;
      Alcotest.test_case "remedies from findings" `Quick test_remedies_from_findings;
      Alcotest.test_case "report carries findings" `Quick test_report_carries_findings;
      Alcotest.test_case "fail-on gate rejects unknown levels" `Quick test_gate;
      Alcotest.test_case "registry count and table" `Quick test_registry_count;
      Alcotest.test_case "README rule table in sync" `Quick
        test_readme_table_in_sync;
    ] )
