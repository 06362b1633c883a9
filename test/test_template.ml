(* Compile templates (DESIGN §19): every compile stamps a template, and a
   table of templates skips only the building.  A compile through a warm
   table must give the bytes and the provenance a compile without one
   gives at the same build-ID serial, and its last .comment must be the
   build ID that serial hands out. *)

open Feam_sysmodel
module Compile = Feam_toolchain.Compile
module Build_id = Feam_toolchain.Build_id
module Provenance = Feam_toolchain.Provenance

let counter name =
  Option.value ~default:0 (Feam_obs.Metrics.counter_value name)

let probes = [ Compile.hello_world_mpi; Compile.hello_world_mpi_fortran ]

let set_serial n =
  Build_id.reset ();
  Build_id.skip n

(* One compile and the provenance registered for its image, read
   before a later compile of the same bytes registers its own. *)
let compile ?templates site install program =
  match Compile.compile_mpi ?templates site install program with
  | Ok image -> Ok (image, Provenance.find image)
  | Error e -> Error (Compile.error_to_string e)

let describe (site, install, program) =
  Printf.sprintf "%s at %s under %s" program.Compile.prog_name (Site.name site)
    (Stack_install.module_name install)

let last_comment image =
  match Feam_elf.Reader.spec_of_bytes image with
  | Ok spec -> List.nth_opt (List.rev spec.Feam_elf.Spec.comments) 0
  | Error e -> Alcotest.failf "a stamped image does not parse: %s" (Feam_elf.Reader.error_to_string e)

(* Warm one table with every case, then compile each case again through
   it and afresh at the same serial.  Returns how many cases built. *)
let check_cases cases =
  let templates = Compile.create_templates () in
  List.iter (fun (site, install, program) ->
      ignore (compile ~templates site install program))
    cases;
  List.fold_left
    (fun built ((site, install, program) as case) ->
      let what = describe case in
      let serial = Build_id.serial () in
      let hits = counter "toolchain.template.hit" in
      let stamped = compile ~templates site install program in
      let after = Build_id.serial () in
      set_serial serial;
      let fresh = compile site install program in
      Alcotest.(check int) (what ^ ": the serials agree") after (Build_id.serial ());
      match (stamped, fresh) with
      | Error s, Error f ->
        Alcotest.(check string) (what ^ ": the errors agree") f s;
        built
      | Ok (s, s_prov), Ok (f, f_prov) ->
        Alcotest.(check int) (what ^ ": a warm table hits") 1
          (counter "toolchain.template.hit" - hits);
        Alcotest.(check bool) (what ^ ": the bytes agree") true (String.equal s f);
        Alcotest.(check bool) (what ^ ": a provenance is registered") true (s_prov <> None);
        Alcotest.(check bool) (what ^ ": the provenance agrees") true (s_prov = f_prov);
        set_serial serial;
        let id = Build_id.next ~site_name:(Site.name site) in
        Alcotest.(check (option string)) (what ^ ": the build ID is stamped")
          (Some id) (last_comment s);
        built + 1
      | _ -> Alcotest.failf "%s: one compile failed, the other did not" what)
    0 cases

let site_cases sites programs =
  List.concat_map
    (fun site ->
      List.concat_map
        (fun install -> List.map (fun p -> (site, install, p)) programs)
        (Site.stack_installs site))
    sites

let test_table_ii seed () =
  let sites = Feam_evalharness.Sites.build_all { Feam_evalharness.Params.default with seed } in
  let built = check_cases (site_cases sites probes) in
  Alcotest.(check bool) "the world compiles probes" true (built > 50)

(* Each scenario's two sites, with the probes and the scenario's own
   program, in one table across the corpus, as Harness.run_corpus
   keeps it: scenarios reuse site names over fresh worlds. *)
let test_corpus () =
  let cases =
    List.concat_map
      (fun index ->
        let sc = Feam_evalharness.Scengen.build ~seed:42 ~index () in
        let sites = [ sc.Feam_evalharness.Scengen.sc_home; sc.sc_target ] in
        site_cases sites (sc.sc_program :: probes))
      (List.init 50 Fun.id)
  in
  let built = check_cases cases in
  Alcotest.(check bool) "the corpus compiles" true (built > 100)

(* Two sites alike but for their names: a template made at one must not
   serve the other, whose images carry its own name's build IDs. *)
let test_site_name_in_key () =
  let a, _ = Fixtures.small_site ~name:"alpha" () in
  let b, _ = Fixtures.small_site ~name:"beta" () in
  let built = check_cases (site_cases [ a; b ] probes) in
  Alcotest.(check bool) "both sites compile" true (built >= 4)

(* Open MPI 1.3 and 1.4 link the same libraries: their probes differ
   only in the stack their provenance names, which decides whether a
   stack's foreign-binary defect strikes them. *)
let test_stack_in_key () =
  let ompi version =
    Feam_mpi.Stack.make ~impl:Feam_mpi.Impl.Open_mpi
      ~impl_version:(Feam_util.Version.of_string_exn version)
      ~compiler:Fixtures.gnu412 ~interconnect:Feam_mpi.Interconnect.Ethernet
  in
  let site, _ =
    Fixtures.small_site
      ~stacks:
        (Some
           [ (ompi "1.3", Stack_install.Functioning);
             (ompi "1.4", Stack_install.Functioning) ])
      ()
  in
  let built = check_cases (site_cases [ site ] probes) in
  Alcotest.(check int) "both stacks compile both probes" 4 built

let suite =
  ( "compile templates",
    [
      Alcotest.test_case "seed 42: a stamp equals a fresh compile" `Slow
        (test_table_ii 42);
      Alcotest.test_case "seed 7: a stamp equals a fresh compile" `Slow
        (test_table_ii 7);
      Alcotest.test_case "scenario corpus: a stamp equals a fresh compile"
        `Slow test_corpus;
      Alcotest.test_case "the site name is in the key" `Quick
        test_site_name_in_key;
      Alcotest.test_case "the stack is in the key" `Quick test_stack_in_key;
    ] )
