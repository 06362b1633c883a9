(* Compile templates (DESIGN §19): a probe is its template, one handle
   through a warm table and equal bytes through a fresh table or none
   ([Eval_ctx.reference]), its build ID naming the template's whole key.
   Any other compile takes its world's next serial. *)

open Feam_sysmodel
module Compile = Feam_toolchain.Compile
module Build_id = Feam_toolchain.Build_id
module Eval_ctx = Feam_core.Eval_ctx

let counter name =
  Option.value ~default:0 (Feam_obs.Metrics.counter_value name)

let probes = [ Compile.hello_world_mpi; Compile.hello_world_mpi_fortran ]

let compile ?templates site install program =
  Result.map_error Compile.error_to_string
    (Compile.compile_mpi ?templates site install program)

(* The provenance the executor finds for [image] at [site]. *)
let provenance site image =
  Build_world.find (Site.world site) (Feam_elf.Reader.image_digest image)

let bytes = Feam_elf.Reader.image_bytes

let describe (site, install, program) =
  Printf.sprintf "%s at %s under %s" program.Compile.prog_name (Site.name site)
    (Stack_install.module_name install)

let last_comment image =
  match Feam_elf.Reader.parse_image image with
  | Ok parsed ->
    List.nth_opt (List.rev (Feam_elf.Reader.spec parsed).Feam_elf.Spec.comments) 0
  | Error e ->
    Alcotest.failf "a compiled image does not parse: %s" (Feam_elf.Reader.error_to_string e)

(* Warm one table with every probe case, then compile each again through
   it, through a fresh table and with none.  Returns the probes built,
   each with its site. *)
let check_probes cases =
  let warm = Compile.create_templates () in
  let first = List.map (fun (site, install, p) -> compile ~templates:warm site install p) cases in
  List.concat
    (List.map2
       (fun ((site, install, program) as case) first ->
         let what = describe case in
         let serial = Build_world.serial (Site.world site) in
         let hits = counter "toolchain.template.hit" in
         let again = compile ~templates:warm site install program in
         let fresh = compile ~templates:(Compile.create_templates ()) site install program in
         let reference =
           compile ?templates:(Eval_ctx.templates (Some Eval_ctx.reference)) site install
             program
         in
         Alcotest.(check int) (what ^ ": a probe takes no serial") serial
           (Build_world.serial (Site.world site));
         match (first, again, fresh, reference) with
         | Error a, Error b, Error c, Error d ->
           List.iter (Alcotest.(check string) (what ^ ": the errors agree") a) [ b; c; d ];
           []
         | Ok first, Ok again, Ok fresh, Ok reference ->
           Alcotest.(check int) (what ^ ": a warm table hits") 1
             (counter "toolchain.template.hit" - hits);
           Alcotest.(check bool) (what ^ ": a warm table gives the one handle") true
             (first == again);
           Alcotest.(check bool) (what ^ ": a fresh table gives the same bytes") true
             (String.equal (bytes first) (bytes fresh));
           Alcotest.(check bool) (what ^ ": no table gives the same bytes") true
             (String.equal (bytes first) (bytes reference));
           (match provenance site first with
           | Some p ->
             Alcotest.(check bool) (what ^ ": its own provenance") true
               (p.Provenance.is_probe
               && p.Provenance.build_site = Site.name site
               && p.Provenance.stack = Some (Stack_install.stack install)
               && p.Provenance.program_name = program.Compile.prog_name)
           | None -> Alcotest.failf "%s: no provenance in its world" what);
           [ (site, first) ]
         | _ -> Alcotest.failf "%s: one compile failed, another did not" what)
       cases first)

(* Probes whose keys differ are distinct images. *)
let check_distinct what built =
  let digests = List.map (fun (_, image) -> Digest.to_hex (Feam_elf.Reader.image_digest image)) built in
  Alcotest.(check int) (what ^ ": every probe is its own image")
    (List.length digests)
    (List.length (List.sort_uniq String.compare digests))

let site_cases sites programs =
  List.concat_map
    (fun site ->
      List.concat_map
        (fun install -> List.map (fun p -> (site, install, p)) programs)
        (Site.stack_installs site))
    sites

let test_table_ii seed () =
  let sites = Feam_evalharness.Sites.build_all { Feam_evalharness.Params.default with seed } in
  let built = check_probes (site_cases sites probes) in
  Alcotest.(check bool) "the world compiles probes" true (List.length built > 50);
  check_distinct "Table II" built

(* Each scenario's two sites, in one table across the corpus, as
   Harness.run_corpus keeps it: scenarios reuse site names over fresh
   worlds, and a template made in one world registers in the next. *)
let test_corpus () =
  let cases =
    List.concat_map
      (fun index ->
        let sc = Feam_evalharness.Scengen.build ~seed:42 ~index () in
        site_cases [ sc.Feam_evalharness.Scengen.sc_home; sc.sc_target ] probes)
      (List.init 50 Fun.id)
  in
  Alcotest.(check bool) "the corpus compiles probes" true (List.length (check_probes cases) > 80)

(* Two sites alike but for their names: a template made at one must not
   serve the other, whose probes carry its own provenance. *)
let test_site_name_in_key () =
  let a, _ = Fixtures.small_site ~name:"alpha" () in
  let b, _ = Fixtures.small_site ~name:"beta" () in
  let built = check_probes (site_cases [ a; b ] probes) in
  Alcotest.(check int) "both sites compile both probes on both stacks" 8 (List.length built);
  check_distinct "alpha and beta" built

(* Open MPI 1.3 and 1.4 link the same libraries: their probes differ
   only in the stack their provenance names, which decides whether a
   stack's foreign-binary defect strikes them. *)
let ompi ?(interconnect = Feam_mpi.Interconnect.Ethernet) version =
  Feam_mpi.Stack.make ~impl:Feam_mpi.Impl.Open_mpi
    ~impl_version:(Feam_util.Version.of_string_exn version)
    ~compiler:Fixtures.gnu412 ~interconnect

let test_stack_in_key () =
  let site, _ =
    Fixtures.small_site
      ~stacks:
        (Some
           [ (ompi "1.3", Stack_install.Functioning);
             (ompi "1.4", Stack_install.Functioning) ])
      ()
  in
  let built = check_probes (site_cases [ site ] probes) in
  Alcotest.(check int) "both stacks compile both probes" 4 (List.length built);
  check_distinct "Open MPI 1.3 and 1.4" built

(* Two worlds, each with a site of one name whose Open MPI differs only
   in its interconnect: one table must not give them one image. *)
let test_interconnect_in_key () =
  let site interconnect =
    let world = Build_world.create () in
    let site =
      Site.make ~world ~compilers:[ Fixtures.gnu412 ] ~seed:7
        ~machine:Feam_elf.Types.X86_64
        ~distro:
          (Feam_sysmodel.Distro.make Feam_sysmodel.Distro.Centos
             ~version:(Fixtures.v "5.6") ~kernel:(Fixtures.v "2.6.18"))
        ~glibc:(Fixtures.v "2.5") ~interconnect ~batch:Fixtures.default_batch "twin"
    in
    ignore
      (Feam_toolchain.Provision.provision_site site
         ~stacks:[ (ompi ~interconnect "1.4", Stack_install.Functioning) ]);
    site
  in
  let a = site Feam_mpi.Interconnect.Ethernet in
  let b = site Feam_mpi.Interconnect.Infiniband in
  let table = Compile.create_templates () in
  let probe site =
    match compile ~templates:table site (List.hd (Site.stack_installs site)) Compile.hello_world_mpi with
    | Ok image -> (site, image)
    | Error e -> Alcotest.failf "twin probe: %s" e
  in
  check_distinct "Ethernet and InfiniBand" [ probe a; probe b ]

(* A compile that is not a probe takes its world's next serial, and its
   last comment is that serial's build ID. *)
let test_serial_stamps () =
  let site, installs = Fixtures.small_site () in
  let program = Compile.program "app" in
  let stamp () =
    match compile site (List.hd installs) program with
    | Ok image -> image
    | Error e -> Alcotest.failf "app: %s" e
  in
  let ids =
    List.map
      (fun () ->
        let image = stamp () in
        let serial = Build_world.serial (Site.world site) in
        Alcotest.(check (option string)) "the serial's build ID is stamped"
          (Some (Build_id.of_string (Printf.sprintf "%s/%d" (Site.name site) serial)))
          (last_comment image);
        Alcotest.(check bool) "the stamp's provenance is the app's" true
          (match provenance site image with
          | Some p -> (not p.Provenance.is_probe) && p.Provenance.program_name = "app"
          | None -> false);
        last_comment image)
      [ (); () ]
  in
  Alcotest.(check int) "two stamps, two build IDs" 2 (List.length (List.sort_uniq compare ids))

(* One matrix pass adds one probe record per template it builds, not one
   per compile: the world ends holding its libraries, the test set's
   compiles and the pass's probe templates. *)
let test_matrix_provenance () =
  let params = { Feam_evalharness.Params.default with seed = 42 } in
  let sites = Feam_evalharness.Sites.build_all params in
  let world = Site.world (List.hd sites) in
  let binaries =
    Feam_evalharness.Testset.build params sites
      (Feam_suites.Npb.all @ Feam_suites.Specmpi.all)
  in
  let built = List.length (Build_world.provenance world) in
  Feam_obs.Metrics.reset ();
  ignore (Feam_evalharness.Migrate.run_all params sites binaries);
  let compiles = counter "toolchain.template.hit" + counter "toolchain.template.miss" in
  let probes = List.filter (fun p -> p.Provenance.is_probe) (Build_world.provenance world) in
  Alcotest.(check int) "the pass builds 52 probe templates" 52
    (counter "toolchain.template.miss");
  Alcotest.(check int) "one probe record per template"
    (counter "toolchain.template.miss") (List.length probes);
  Alcotest.(check int) "and nothing else" (built + List.length probes)
    (List.length (Build_world.provenance world));
  Alcotest.(check bool) "far fewer than the probe compiles" true
    (compiles > 10 * List.length probes)

let suite =
  ( "compile templates",
    [
      Alcotest.test_case "seed 42: a stamp equals a fresh compile" `Slow (test_table_ii 42);
      Alcotest.test_case "seed 7: a stamp equals a fresh compile" `Slow (test_table_ii 7);
      Alcotest.test_case "scenario corpus: a stamp equals a fresh compile" `Slow test_corpus;
      Alcotest.test_case "the site name is in the key" `Quick test_site_name_in_key;
      Alcotest.test_case "the stack is in the key" `Quick test_stack_in_key;
      Alcotest.test_case "the interconnect is in the key" `Quick test_interconnect_in_key;
      Alcotest.test_case "a compile that is not a probe takes a serial" `Quick
        test_serial_stamps;
      Alcotest.test_case "seed 42: a matrix pass registers each probe template once" `Slow
        test_matrix_provenance;
    ] )
