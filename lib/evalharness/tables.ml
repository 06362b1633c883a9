(* Renders the paper's tables from evaluation results. *)

open Feam_util
open Feam_suites

let pct f = Printf.sprintf "%.0f%%" (100.0 *. f)

(* -- Table I: identifying libraries of MPI implementations -------------- *)

(* Also verifies the identification scheme over the whole corpus: §VI.B
   reports "Our methods were 100% accurate at assessing whether a
   matching MPI implementation was available" — identification is its
   foundation. *)
let table1 binaries =
  let correct, total =
    List.fold_left
      (fun (correct, total) (b : Testset.binary) ->
        match Feam_elf.Reader.parse_image b.Testset.image with
        | Error _ -> (correct, total + 1)
        | Ok parsed -> (
          let spec = Feam_elf.Reader.spec parsed in
          match Feam_core.Mpi_ident.identify spec.Feam_elf.Spec.needed with
          | Some ident
            when Feam_mpi.Impl.equal ident.Feam_core.Mpi_ident.impl
                   (Feam_mpi.Stack.impl
                      (Feam_sysmodel.Stack_install.stack b.Testset.install)) ->
            (correct + 1, total + 1)
          | _ -> (correct, total + 1)))
      (0, 0) binaries
  in
  let rows =
    List.map (fun (impl, deps) -> [ impl; deps ]) Feam_core.Mpi_ident.table_rows
  in
  let table =
    Table.make ~title:"TABLE I. IDENTIFYING LIBRARIES OF MPI IMPLEMENTATIONS"
      ~header:[ "MPI Implementation"; "Library Dependencies" ]
      rows
  in
  ( table,
    Printf.sprintf "identification accuracy over corpus: %s (%d/%d binaries)"
      (Table.percent correct total) correct total )

(* -- Table II: target site characteristics ------------------------------- *)

let table2 sites =
  let rows =
    List.map
      (fun site ->
        let stacks =
          Feam_sysmodel.Site.stack_installs site
          |> List.map (fun i ->
                 Feam_sysmodel.Stack_install.module_name i)
          |> String.concat ", "
        in
        let compilers =
          Feam_sysmodel.Site.compilers site
          |> List.map Feam_mpi.Compiler.to_string
          |> String.concat ", "
        in
        [
          Feam_sysmodel.Site.name site;
          Feam_sysmodel.Distro.name (Feam_sysmodel.Site.distro site);
          Version.to_string (Feam_sysmodel.Site.glibc site);
          compilers;
          stacks;
        ])
      sites
  in
  Table.make ~title:"TABLE II. TARGET SITE CHARACTERISTICS"
    ~header:[ "Computing Site"; "Operating System"; "C Library"; "Compilers"; "Utilized MPI Stacks" ]
    rows

(* -- Table III: accuracy of prediction model ------------------------------ *)

let table3 migrations =
  let acc mode suite = Accuracy.suite_accuracy mode suite migrations in
  Table.make ~title:"TABLE III. ACCURACY OF PREDICTION MODEL"
    ~aligns:[ Table.Left; Table.Right; Table.Right ]
    ~header:[ ""; "NAS"; "SPEC" ]
    [
      [
        "Basic Prediction";
        pct (acc Accuracy.Basic Benchmark.Nas);
        pct (acc Accuracy.Basic Benchmark.Spec_mpi2007);
      ];
      [
        "Extended Prediction";
        pct (acc Accuracy.Extended Benchmark.Nas);
        pct (acc Accuracy.Extended Benchmark.Spec_mpi2007);
      ];
    ]

(* -- Table IV: impact of resolution model --------------------------------- *)

let table4 migrations =
  let nas = Resolution_impact.of_suite Benchmark.Nas migrations in
  let spec = Resolution_impact.of_suite Benchmark.Spec_mpi2007 migrations in
  Table.make ~title:"TABLE IV. IMPACT OF RESOLUTION MODEL"
    ~aligns:[ Table.Left; Table.Right; Table.Right ]
    ~header:[ ""; "NAS"; "SPEC" ]
    [
      [
        "Successes before resolution";
        pct (Resolution_impact.rate_before nas);
        pct (Resolution_impact.rate_before spec);
      ];
      [
        "Successes after resolution";
        pct (Resolution_impact.rate_after nas);
        pct (Resolution_impact.rate_after spec);
      ];
      [
        "Increase due to resolution";
        pct (Resolution_impact.relative_increase nas);
        pct (Resolution_impact.relative_increase spec);
      ];
    ]

(* -- Soname heuristic vs. symbol closure (symcheck validation) ------------ *)

let symbol_impact sites binaries =
  let row label t =
    [
      label;
      string_of_int t.Symbol_impact.migrations;
      pct (Symbol_impact.acceptance_rate t);
      string_of_int t.Symbol_impact.overturned;
      string_of_int t.Symbol_impact.miss_symbols;
      pct (Symbol_impact.overturn_rate t);
    ]
  in
  let nas = Symbol_impact.of_suite Benchmark.Nas sites binaries in
  let spec = Symbol_impact.of_suite Benchmark.Spec_mpi2007 sites binaries in
  Table.make ~title:"Soname-major heuristic vs. symbol closure (symcheck)"
    ~aligns:
      [ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
    ~header:
      [
        "";
        "Migrations";
        "Lib-level accepted";
        "Overturned";
        "Missing symbols";
        "Overturn rate";
      ]
    [ row "NAS" nas; row "SPEC" spec ]

(* -- Accuracy by target site ---------------------------------------------- *)

(* Where do mispredictions happen?  Accuracy of both modes per target
   site — the environment-level view behind Table III's aggregates. *)
let accuracy_by_site migrations =
  let targets =
    List.sort_uniq String.compare
      (List.map (fun (m : Migrate.migration) -> m.Migrate.target_name) migrations)
  in
  let rows =
    List.map
      (fun target ->
        let mine =
          List.filter
            (fun (m : Migrate.migration) -> m.Migrate.target_name = target)
            migrations
        in
        let basic = Accuracy.confusion_of Accuracy.Basic mine in
        let extended = Accuracy.confusion_of Accuracy.Extended mine in
        [
          target;
          string_of_int (List.length mine);
          pct (Accuracy.accuracy basic);
          pct (Accuracy.accuracy extended);
        ])
      targets
  in
  Table.make ~title:"Prediction accuracy by target site"
    ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right ]
    ~header:[ "Target"; "Migrations"; "Basic"; "Extended" ]
    rows

(* -- Failure-cause breakdown (results analysis, §VI.C) -------------------- *)

let failure_breakdown migrations =
  let hist =
    Accuracy.failure_histogram (fun m -> m.Migrate.actual_before) migrations
  in
  let total = List.fold_left (fun a (_, n) -> a + n) 0 hist in
  let rows =
    List.map
      (fun (cause, n) ->
        [ Accuracy.cause_name cause; string_of_int n; Table.percent n total ])
      hist
  in
  Table.make ~title:"Failure causes before resolution (analysis of §VI.C)"
    ~aligns:[ Table.Left; Table.Right; Table.Right ]
    ~header:[ "Cause"; "Migrations"; "Share" ]
    rows
