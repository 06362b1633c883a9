(* FEAM command-line interface.

   The real FEAM operates on live Unix systems; this reproduction's
   sites are simulated, so the CLI exposes the framework over a *scenario*:
   a named, reproducible world of sites.  Two scenarios are built in:

     eval   — the five Table II sites with the seeded fault model
     demo   — a two-site home/target world with a fault-free model

   Commands mirror the paper's workflow:

     feam sites     --scenario eval                 list the sites
     feam describe  --scenario demo --site home ... run the BDC on a binary
     feam discover  --scenario demo --site target   run the EDC
     feam predict   --scenario demo ...             source phase + target
                                                    phase + report
     feam config-check                              parse a config file body *)

open Cmdliner
open Feam_util
open Feam_sysmodel

let setup_logs debug =
  Fmt_tty.setup_std_outputs ();
  Logs.set_reporter (Logs_fmt.reporter ());
  Logs.set_level (if debug then Some Logs.Debug else Some Logs.Warning)

(* -- Scenarios ---------------------------------------------------------------- *)

type scenario = {
  sites : Site.t list;
  (* per-site: a freshly compiled sample binary and its install *)
  samples : (string * (string * Stack_install.t)) list;
}

let demo_scenario () =
  let open Feam_mpi in
  let v = Version.of_string_exn in
  let batch =
    Batch.make ~queues:[ { Batch.queue_name = "debug"; wait_seconds = 5.0 } ]
  in
  let world = Build_world.create () in
  let make ~name ~glibc ~gcc ~distro_version =
    let compiler = Compiler.make Compiler.Gnu (v gcc) in
    let stack =
      Stack.make ~impl:Impl.Open_mpi ~impl_version:(v "1.4") ~compiler
        ~interconnect:Interconnect.Ethernet
    in
    let site =
      Site.make ~world ~description:"demo site" ~compilers:[ compiler ] ~seed:4
        ~fault_model:Fault_model.none ~machine:Feam_elf.Types.X86_64
        ~distro:(Distro.make Distro.Centos ~version:(v distro_version) ~kernel:(v "2.6.18"))
        ~glibc:(v glibc) ~interconnect:Interconnect.Ethernet ~batch name
    in
    let installs =
      Feam_toolchain.Provision.provision_site site
        ~stacks:[ (stack, Stack_install.Functioning) ]
    in
    (site, List.hd installs)
  in
  let home, home_install = make ~name:"home" ~glibc:"2.5" ~gcc:"4.1.2" ~distro_version:"5.6" in
  let target, target_install = make ~name:"target" ~glibc:"2.12" ~gcc:"4.4.5" ~distro_version:"6.1" in
  let sample site install =
    let program =
      Feam_toolchain.Compile.program ~language:Stack.Fortran "sample_app"
    in
    match
      Feam_toolchain.Compile.compile_mpi_to site install program
        ~dir:"/home/user/bin"
    with
    | Ok path -> (path, install)
    | Error _ -> failwith "sample compile failed"
  in
  {
    sites = [ home; target ];
    samples =
      [ ("home", sample home home_install); ("target", sample target target_install) ];
  }

let eval_scenario () =
  let params = Feam_evalharness.Params.default in
  let sites = Feam_evalharness.Sites.build_all params in
  let samples =
    List.filter_map
      (fun site ->
        match Site.stack_installs site with
        | install :: _ -> (
          let program = Feam_toolchain.Compile.program "sample_app" in
          match
            Feam_toolchain.Compile.compile_mpi_to site install program
              ~dir:"/home/user/bin"
          with
          | Ok path -> Some (Site.name site, (path, install))
          | Error _ -> None)
        | [] -> None)
      sites
  in
  { sites; samples }

(* A scenario from a file: sites from the scenario DSL, with a sample
   binary compiled at every site that has a stack. *)
let file_scenario path =
  let text = In_channel.with_open_text path In_channel.input_all in
  match Feam_evalharness.Scenario.load text with
  | Error e -> failwith e
  | Ok sites ->
    let samples =
      List.filter_map
        (fun site ->
          match Site.stack_installs site with
          | install :: _ -> (
            let program =
              Feam_toolchain.Compile.program ~language:Feam_mpi.Stack.Fortran
                "sample_app"
            in
            match
              Feam_toolchain.Compile.compile_mpi_to site install program
                ~dir:"/home/user/bin"
            with
            | Ok path -> Some (Site.name site, (path, install))
            | Error _ -> None)
          | [] -> None)
        sites
    in
    { sites; samples }

let load_scenario = function
  | "demo" -> demo_scenario ()
  | "eval" -> eval_scenario ()
  | other ->
    if Sys.file_exists other then file_scenario other
    else
      failwith
        (Printf.sprintf "unknown scenario %S (use demo, eval, or a scenario file path)" other)

let find_site scenario name =
  match List.find_opt (fun s -> Site.name s = name) scenario.sites with
  | Some s -> s
  | None ->
    failwith
      (Printf.sprintf "no site %S; available: %s" name
         (String.concat ", " (List.map Site.name scenario.sites)))

(* -- Arguments ------------------------------------------------------------------ *)

let debug_arg =
  Arg.(value & flag & info [ "debug" ] ~doc:"Enable debug logging.")

(* -- Observability: --trace / --trace-out ------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt
        (some (enum Feam_obs.trace_formats))
        None
    & info [ "trace" ] ~docv:"FORMAT"
        ~doc:"Trace the run: 'pretty' (human-readable span tree, stderr), \
              'jsonl' (one JSON object per span), or 'chrome' (Chrome \
              trace_event JSON; open in chrome://tracing or perfetto).")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:"Write the trace to FILE instead of the terminal.")

let trace_alloc_arg =
  Arg.(
    value & flag
    & info [ "trace-alloc" ]
        ~doc:"Record allocation accounting on every span: alloc_minor_w \
              and alloc_major_w attributes carry the words the span's \
              body allocated on each heap (Gc counters bracketing the \
              span).")

let journal_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "journal" ] ~docv:"FILE"
        ~doc:"Record the run's flight-recorder journal — evidence atoms, \
              determinant decisions, replay payloads — to FILE.  Feed it \
              to 'feam replay' or 'feam diff'.")

let write_file file text =
  Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc text)

(* Turn tracing on for this process and run [f] with the journal, if
   any, in scope; the journal is written when the scope closes.  An
   early `exit 1` / `exit 2` (e.g. `feam lint --fail-on`) leaves with
   the scope open, so at_exit drains the trace sink and the open
   journal; both drains are idempotent, so the normal end-of-command
   flush does not double-write. *)
let with_obs ?journal ?(alloc = false) trace trace_out f =
  (* Allocation accounting rides the trace: when requested, every span
     also reports the minor/major words its body allocated. *)
  if alloc then Feam_obs.Trace.set_record_alloc true;
  Option.iter (Feam_obs.trace_to ?file:trace_out) trace;
  if trace <> None || journal <> None then
    at_exit (fun () ->
        Feam_obs.flush ();
        Feam_flightrec.Recorder.flush ());
  match journal with
  | None -> f ()
  | Some file ->
    Feam_flightrec.Recorder.with_journal ~tool:"feam" ~emit:(write_file file) f

let scenario_arg =
  Arg.(
    value
    & opt string "demo"
    & info [ "scenario" ] ~docv:"NAME"
        ~doc:"Scenario: demo, eval, or the path of a scenario file (see \
              'feam scenario-template').")

let site_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "site" ] ~docv:"SITE" ~doc:"Site to operate on.")

let binary_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "binary" ] ~docv:"PATH"
        ~doc:"Path of the binary inside the site (defaults to the scenario's sample).")

let require_site scenario site =
  match site with
  | Some s -> find_site scenario s
  | None -> List.hd scenario.sites

let sample_binary scenario site =
  match List.assoc_opt (Site.name site) scenario.samples with
  | Some (path, install) -> (path, Some install)
  | None -> failwith "no sample binary at this site; pass --binary"

(* -- Commands -------------------------------------------------------------------- *)

let cmd_sites debug scenario_name =
  setup_logs debug;
  let scenario = load_scenario scenario_name in
  let rows =
    List.map
      (fun site ->
        [
          Site.name site;
          Feam_elf.Types.machine_uname (Site.machine site);
          Distro.name (Site.distro site);
          Version.to_string (Site.glibc site);
          string_of_int (List.length (Site.stack_installs site));
        ])
      scenario.sites
  in
  Table.print
    (Table.make ~title:("Scenario: " ^ scenario_name)
       ~header:[ "Site"; "ISA"; "OS"; "glibc"; "MPI stacks" ]
       rows)

let cmd_describe debug trace trace_out journal scenario_name site binary =
  setup_logs debug;
  with_obs ?journal trace trace_out @@ fun () ->
  let scenario = load_scenario scenario_name in
  let site = require_site scenario site in
  let path, install =
    match binary with
    | Some p -> (p, None)
    | None ->
      let p, i = sample_binary scenario site in
      (p, i)
  in
  let env =
    match install with
    | Some i -> Modules_tool.load_stack (Site.base_env site) i
    | None -> Site.base_env site
  in
  (match Feam_core.Bdc.describe site env ~path with
  | Ok d -> Fmt.pr "%a@." Feam_core.Description.pp d
  | Error e ->
    Fmt.epr "describe failed: %s@." e;
    Feam_obs.flush ();
    exit 1);
  Feam_obs.flush ()

let cmd_discover debug trace trace_out journal scenario_name site =
  setup_logs debug;
  with_obs ?journal trace trace_out @@ fun () ->
  let scenario = load_scenario scenario_name in
  let site = require_site scenario site in
  let d = Feam_core.Edc.discover ~env_type:`Target site (Site.base_env site) in
  Fmt.pr "%a@." Feam_core.Discovery.pp d;
  Feam_obs.flush ()

(* The symbol-level subset of the rule registry, run by `feam symcheck`
   and `feam predict --symbols`. *)
let symbol_rule_ids =
  [ "symbol-unresolved"; "symbol-interposed"; "soname-major-unsound" ]

let symbol_rules () =
  List.filter
    (fun r -> List.mem r.Feam_analysis.Rule.id symbol_rule_ids)
    (Feam_analysis.Registry.all ())

(* Open (or start) a depot directory and hand back the store. *)
let open_depot dir =
  match Feam_depot.Store.open_dir dir with
  | Ok store -> store
  | Error e ->
    Fmt.epr "cannot open depot %s: %s@." dir e;
    exit 1

let read_text file =
  if file = "-" then In_channel.input_all In_channel.stdin
  else In_channel.with_open_text file In_channel.input_all

let write_text file text =
  match file with
  | "-" -> print_string text
  | f ->
    Out_channel.with_open_text f (fun oc -> Out_channel.output_string oc text)

(* Read a bundle or manifest artifact ("-" is stdin); a damaged one is
   reported with its typed load error and exits 1. *)
let load_artifact parse file =
  match parse (read_text file) with
  | Ok x -> x
  | Error e ->
    Fmt.epr "cannot load %s: %s@." file
      (Feam_core.Bundle_io.load_error_to_string e);
    exit 1

let load_bundle = load_artifact Feam_core.Bundle_io.parse
let load_manifest = load_artifact Feam_core.Bundle_io.parse_manifest

(* The full prediction pipeline over a scenario — source phase at the
   home site, target phase (with optional lint findings) at the target —
   shared by `feam predict` and `feam metrics`.  With [depot_dir] the
   target phase stages library copies through a persistent
   content-addressed depot: objects already in the store are recognized
   (depot.hit) and the store is saved back when the run completes. *)
let run_predict_pipeline ?(announce_source = true) ?(symbols = false)
    ?(lint_fleet = false) ?depot_dir scenario_name from_site to_site binary
    basic_only lint =
  let scenario = load_scenario scenario_name in
  let home =
    require_site scenario
      (Some (Option.value from_site ~default:(Site.name (List.hd scenario.sites))))
  in
  let target =
    match to_site with
    | Some t -> find_site scenario t
    | None -> (
      match scenario.sites with
      | _ :: t :: _ -> t
      | _ -> failwith "need --to site")
  in
  let home_path, home_install =
    match binary with
    | Some p -> (p, None)
    | None ->
      let p, i = sample_binary scenario home in
      (p, i)
  in
  let config = Feam_core.Config.default in
  let home_env =
    match home_install with
    | Some i -> Modules_tool.load_stack (Site.base_env home) i
    | None -> Site.base_env home
  in
  let clock = Sim_clock.create () in
  let linted_bundle = ref None in
  let depot_store =
    Option.map (fun dir -> (dir, open_depot dir)) depot_dir
  in
  let depot =
    Option.map
      (fun (_, store) ->
        Feam_core.Resolve_model.depot ~store
          ~possession:(Feam_depot.Planner.Possession.create ()))
      depot_store
  in
  let result =
    Effects.with_clock clock @@ fun () ->
    if basic_only then begin
      (* stage the binary by hand, target phase only *)
      let bytes =
        match Vfs.find (Site.vfs home) home_path with
        | Some { Vfs.kind = Vfs.Elf b; _ } -> b
        | _ -> failwith "binary not found at source site"
      in
      let staged =
        Feam_evalharness.Migrate.migrated_dir ^ "/" ^ Vfs.basename home_path
      in
      Vfs.add (Site.vfs target) staged (Vfs.Elf bytes);
      Feam_core.Phases.target_phase ?depot config target
        (Site.base_env target) ~binary_path:staged ()
    end
    else
      match
        Feam_core.Phases.source_phase config home home_env
          ~binary_path:home_path
      with
      | Error e -> Error e
      | Ok bundle ->
        linted_bundle := Some bundle;
        if announce_source then
          Fmt.pr "source phase at %s: bundle %.1f MB, %d copies, %d probes@.@."
            (Site.name home)
            (float_of_int (Feam_core.Bundle.total_bytes bundle) /. 1048576.0)
            (List.length bundle.Feam_core.Bundle.copies)
            (List.length bundle.Feam_core.Bundle.probes);
        Feam_core.Phases.target_phase ?depot config target
          (Site.base_env target) ~bundle ()
  in
  Option.iter
    (fun (dir, store) -> Feam_depot.Store.save_dir store dir)
    depot_store;
  let result =
    match result with
    | Error _ -> result
    | Ok report -> (
      (* the static-analysis layer feeding predict: findings ride the
         report — the whole rule set under --lint, the symbol-closure
         subset under --symbols alone *)
      match (lint || symbols || lint_fleet, !linted_bundle) with
      | true, Some bundle ->
        let ctx =
          Feam_analysis.Context.of_bundle
            ~target:(Feam_analysis.Context.target_of_site target) bundle
        in
        let rules =
          if lint || lint_fleet then None else Some (symbol_rules ())
        in
        let report =
          Feam_core.Report.with_findings report
            (Feam_analysis.Engine.run ?rules ctx)
        in
        (* findings ride the report: re-journal it so the journal's
           *last* report record (the one replay and diff read) carries
           them too *)
        Feam_core.Report.journal report;
        (* --lint-fleet (feam stats): check the same bundle against every
           other scenario site too.  The per-target contexts share one
           spec parse per embedded image through the bundle's image
           handles, which is what the elf.parse_memo cache stats
           measure. *)
        if lint_fleet then
          List.iter
            (fun site ->
              if Site.name site <> Site.name target then
                ignore
                  (Feam_analysis.Engine.run
                     (Feam_analysis.Context.of_bundle
                        ~target:(Feam_analysis.Context.target_of_site site)
                        bundle)))
            scenario.sites;
        Ok report
      | _ -> Ok report)
  in
  (result, clock)

let cmd_predict debug trace trace_out trace_alloc journal scenario_name
    from_site to_site binary basic_only json lint symbols depot_dir =
  setup_logs debug;
  with_obs ?journal ~alloc:trace_alloc trace trace_out @@ fun () ->
  let result, clock =
    run_predict_pipeline ~symbols ?depot_dir scenario_name from_site to_site
      binary basic_only lint
  in
  (match result with
  | Ok report ->
    if json then
      print_endline (Feam_util.Json.render (Feam_core.Report.to_json report))
    else begin
      print_string (Feam_core.Report.render report);
      Fmt.pr "@.total simulated time: %s@." (Sim_clock.to_string clock)
    end
  | Error e ->
    Fmt.epr "prediction failed: %s@." e;
    Feam_obs.flush ();
    exit 1);
  Feam_obs.flush ()

(* -- Metrics dump: `feam metrics` --------------------------------------------- *)

(* Run the prediction pipeline in-process and dump the metrics registry
   it populated: counters and histograms from the BDC, EDC, probes, the
   four prediction checks, and the resolution model. *)
let cmd_metrics debug trace trace_out scenario_name from_site to_site binary
    basic_only lint json =
  setup_logs debug;
  with_obs trace trace_out @@ fun () ->
  let result, _clock =
    run_predict_pipeline ~announce_source:false scenario_name from_site to_site
      binary basic_only lint
  in
  let verdict =
    match result with
    | Ok report ->
      if Feam_core.Predict.is_ready (Feam_core.Report.prediction report) then
        "ready"
      else "not ready"
    | Error e -> "failed: " ^ e
  in
  if json then
    print_endline
      (Json.render
         (Json.Obj
            [
              ("prediction", Json.Str verdict);
              ("metrics", Feam_obs.Metrics.to_json ());
            ]))
  else begin
    Fmt.pr "prediction: %s@." verdict;
    print_string (Feam_obs.Metrics.render_text ())
  end;
  Feam_obs.flush ()

(* -- Static analysis: `feam lint` -------------------------------------------- *)

(* Build the bundle to lint: a serialized artifact when FILE is given,
   otherwise the source phase run in-process over a scenario site. *)
let lint_bundle scenario_name site binary = function
  | Some file -> load_bundle file
  | None ->
    let scenario = load_scenario scenario_name in
    let site = require_site scenario site in
    let path, install =
      match binary with
      | Some p -> (p, None)
      | None ->
        let p, i = sample_binary scenario site in
        (p, i)
    in
    let env =
      match install with
      | Some i -> Modules_tool.load_stack (Site.base_env site) i
      | None -> Site.base_env site
    in
    (match
       Feam_core.Phases.source_phase Feam_core.Config.default site env
         ~binary_path:path
     with
    | Ok bundle -> bundle
    | Error e -> failwith (Printf.sprintf "source phase failed: %s" e))

let lint_target scenario_name target_site target_glibc =
  match (target_site, target_glibc) with
  | Some name, _ ->
    let scenario = load_scenario scenario_name in
    Some (Feam_analysis.Context.target_of_site (find_site scenario name))
  | None, Some v -> (
    match Version.of_string v with
    | Some glibc -> Some (Feam_analysis.Context.make_target ~glibc ())
    | None -> failwith (Printf.sprintf "bad --target-glibc version %S" v))
  | None, None -> None

let cmd_lint debug trace trace_out scenario_name site binary bundle_file
    target_site target_glibc json list_rules explain fail_on =
  setup_logs debug;
  with_obs trace trace_out @@ fun () ->
  if list_rules then begin
    let rows =
      List.map
        (fun r ->
          [
            r.Feam_analysis.Rule.id;
            Feam_analysis.Rule.tier r;
            Feam_core.Diagnose.level_to_string r.Feam_analysis.Rule.default_level;
            r.Feam_analysis.Rule.title;
          ])
        (Feam_analysis.Registry.all ())
    in
    Table.print
      (Table.make ~title:"feam lint rules"
         ~header:[ "Rule"; "Tier"; "Level"; "Checks" ]
         rows);
    Printf.printf "%d rules registered (%d cell, %d fleet)\n"
      (Feam_analysis.Registry.count ())
      (List.length (Feam_analysis.Registry.cell_ids ()))
      (List.length (Feam_analysis.Registry.fleet_ids ()));
    print_string
      "exit codes: 0 clean (info only), 1 warnings, 2 errors \
       (--fail-on warn|error|never tunes the gate)\n"
  end
  else
    match explain with
    | Some rule_id -> (
      (* Same contract as Engine.gate: an unknown id exits 2 naming the
         valid set. *)
      match Feam_analysis.Registry.find rule_id with
      | Some r ->
        Printf.printf "%s (%s rule, default level %s)\n  %s\n\n%s\n"
          r.Feam_analysis.Rule.id
          (Feam_analysis.Rule.tier r)
          (Feam_core.Diagnose.level_to_string
             r.Feam_analysis.Rule.default_level)
          r.Feam_analysis.Rule.title r.Feam_analysis.Rule.explain
      | None ->
        Fmt.epr "feam lint: unknown rule %S (expected one of %s)@." rule_id
          (String.concat ", " (Feam_analysis.Registry.ids ()));
        Feam_obs.flush ();
        exit 2)
    | None ->
      let bundle = lint_bundle scenario_name site binary bundle_file in
      let target = lint_target scenario_name target_site target_glibc in
      let ctx = Feam_analysis.Context.of_bundle ?target bundle in
      let findings = Feam_analysis.Engine.run ctx in
      if json then
        print_endline (Json.render (Feam_analysis.Engine.to_json ctx findings))
      else print_string (Feam_analysis.Engine.render_text ctx findings);
      let gated =
        match Feam_analysis.Engine.gate ~fail_on findings with
        | Ok code -> code
        | Error msg ->
          Fmt.epr "feam lint: %s@." msg;
          2
      in
      (* flush the trace sink before the gate's exit code short-circuits
         normal teardown (at_exit re-flushing is an idempotent no-op) *)
      Feam_obs.flush ();
      exit gated

(* -- Fleet-scale static analysis: `feam audit` -------------------------------- *)

let cmd_audit debug trace trace_out seed json fail_on baseline_file
    write_baseline =
  setup_logs debug;
  with_obs trace trace_out @@ fun () ->
  let baseline =
    match baseline_file with
    | None -> Feam_analysis.Baseline.empty
    | Some file -> (
      let text = In_channel.with_open_text file In_channel.input_all in
      match Feam_analysis.Baseline.parse text with
      | Ok b -> b
      | Error e ->
        Fmt.epr "feam audit: cannot parse baseline %s: %s@." file e;
        Feam_obs.flush ();
        exit 2)
  in
  (* progress goes to stderr so stdout stays the deterministic report *)
  let fleet =
    Feam_evalharness.Audit.of_seed ~on_progress:(Fmt.epr "%s@.") ~seed ()
  in
  let findings = Feam_analysis.Engine.run_fleet fleet in
  let fresh, suppressed = Feam_analysis.Baseline.apply baseline findings in
  (match write_baseline with
  | None -> ()
  | Some file ->
    Out_channel.with_open_text file (fun oc ->
        Out_channel.output_string oc
          (Feam_analysis.Baseline.render
             (Feam_analysis.Baseline.of_findings findings)));
    Fmt.epr "feam audit: wrote %d baseline entries to %s@."
      (List.length findings) file);
  if json then
    print_endline
      (Json.render (Feam_analysis.Engine.fleet_to_json fleet fresh))
  else begin
    print_string (Feam_analysis.Engine.render_fleet_text fleet fresh);
    if suppressed <> [] then
      Printf.printf "%d finding(s) suppressed by the baseline\n"
        (List.length suppressed)
  end;
  (* only findings absent from the baseline gate the exit code *)
  let gated =
    match Feam_analysis.Engine.gate ~fail_on fresh with
    | Ok code -> code
    | Error msg ->
      Fmt.epr "feam audit: %s@." msg;
      2
  in
  Feam_obs.flush ();
  exit gated

(* -- Symbol closure: `feam symcheck` ------------------------------------------ *)

let cmd_symcheck debug trace trace_out journal scenario_name site binary
    bundle_file target_site target_glibc json bind_log fail_on =
  setup_logs debug;
  with_obs ?journal trace trace_out @@ fun () ->
  let module S = Feam_symcheck.Symcheck in
  let bundle = lint_bundle scenario_name site binary bundle_file in
  let target = lint_target scenario_name target_site target_glibc in
  let ctx = Feam_analysis.Context.of_bundle ?target bundle in
  let result = Feam_analysis.Context.symbols ctx in
  let findings = Feam_analysis.Engine.run ~rules:(symbol_rules ()) ctx in
  if json then begin
    let scope_json =
      Json.Obj
        [
          ( "scope",
            Json.List
              (List.map (fun m -> Json.Str m.S.mb_label) result.S.scope) );
          ("complete", Json.Bool result.S.complete);
          ("bound", Json.Int (List.length result.S.bindings));
          ("unresolved_strong", Json.Int (List.length result.S.unresolved_strong));
          ("unresolved_weak", Json.Int (List.length result.S.unresolved_weak));
          ("interpositions", Json.Int (List.length result.S.interpositions));
        ]
    in
    let report =
      match Feam_analysis.Engine.to_json ctx findings with
      | Json.Obj fields -> Json.Obj (fields @ [ ("symcheck", scope_json) ])
      | other -> other
    in
    print_endline (Json.render report)
  end
  else begin
    Fmt.pr "feam symcheck: %s@."
      bundle.Feam_core.Bundle.binary_description.Feam_core.Description.path;
    Fmt.pr "scope (%d objects, load order): %s@."
      (List.length result.S.scope)
      (String.concat ", " (List.map (fun m -> m.S.mb_label) result.S.scope));
    Fmt.pr "scope %s; %d imports bound, %d unresolved strong, %d weak, %d interposed@."
      (if result.S.complete then "complete"
       else "incomplete (misses an absent object could explain are exempt)")
      (List.length result.S.bindings)
      (List.length result.S.unresolved_strong)
      (List.length result.S.unresolved_weak)
      (List.length result.S.interpositions);
    if bind_log then
      List.iter
        (fun (b : S.binding) ->
          Fmt.pr "  bind %s: %s -> %s [scope %d]@." b.S.bd_importer
            (S.symbol_ref b.S.bd_symbol b.S.bd_version)
            b.S.bd_provider b.S.bd_provider_pos)
        result.S.bindings;
    List.iter
      (fun (f : Feam_core.Diagnose.finding) ->
        Fmt.pr "%-5s %-21s %s: %s@."
          (Feam_core.Diagnose.level_to_string f.Feam_core.Diagnose.level)
          f.Feam_core.Diagnose.rule_id f.Feam_core.Diagnose.subject
          f.Feam_core.Diagnose.message)
      findings;
    Fmt.pr "%s@." (Feam_analysis.Engine.summary findings)
  end;
  let gated =
    match Feam_analysis.Engine.gate ~fail_on findings with
    | Ok code -> code
    | Error msg ->
      Fmt.epr "feam symcheck: %s@." msg;
      2
  in
  Feam_obs.flush ();
  exit gated

(* -- Flight recorder: `feam replay` / `feam diff` ----------------------------- *)

let parse_journal file =
  let text =
    if file = "-" then In_channel.input_all In_channel.stdin
    else In_channel.with_open_text file In_channel.input_all
  in
  match Feam_flightrec.Journal.parse text with
  | Ok journal -> journal
  | Error e -> failwith (Printf.sprintf "%s: %s" file e)

(* Re-plan a depot transfer purely from a journal's recorded wants and
   check it reproduces the recorded plan byte-for-byte. *)
let replay_plan json journal =
  match Feam_core.Replay.plan_of_journal journal with
  | Error e ->
    Fmt.epr "replay failed: %s@." e;
    exit 1
  | Ok outcome ->
    let open Feam_core.Replay in
    if json then
      print_endline
        (Json.render
           (Json.Obj
              [
                ("matches", Json.Bool outcome.plan_matches);
                ( "has_recorded_plan",
                  Json.Bool (outcome.plan_recorded <> None) );
                ("plan", Feam_depot.Planner.to_json outcome.plan);
              ]))
    else print_string outcome.plan_rendered;
    (match outcome.plan_recorded with
    | None ->
      Fmt.epr "replay: the journal records no plan text to compare against@."
    | Some _ when outcome.plan_matches ->
      Fmt.epr "replay: plan matches the journal's recorded text byte-for-byte@."
    | Some recorded ->
      Fmt.epr "replay: MISMATCH between the replayed and recorded plans@.";
      Fmt.epr "--- recorded ---@.%s--- replayed ---@.%s" recorded
        outcome.plan_rendered;
      exit 1)

(* Rebuild and rerun a journaled agreement corpus — every scenario is a
   pure function of its (seed, index, keep) coordinates — and check the
   re-rendered report matches the recorded one byte-for-byte. *)
let replay_agree json journal =
  match Feam_agree.Replay.of_journal journal with
  | Error e ->
    Fmt.epr "replay failed: %s@." e;
    exit 1
  | Ok outcome ->
    let open Feam_agree.Replay in
    if json then
      print_endline
        (Json.render
           (Json.Obj
              [
                ("matches", Json.Bool outcome.matches);
                ("has_recorded_report", Json.Bool (outcome.recorded <> None));
                ("scenarios", Json.Int (List.length outcome.runs));
              ]))
    else print_string outcome.rendered;
    (match outcome.recorded with
    | None ->
      Fmt.epr "replay: the journal records no report text to compare against@."
    | Some _ when outcome.matches ->
      Fmt.epr "replay: report matches the journal's recorded text byte-for-byte@."
    | Some recorded ->
      Fmt.epr "replay: MISMATCH between the replayed and recorded reports@.";
      Fmt.epr "--- recorded ---@.%s--- replayed ---@.%s" recorded
        outcome.rendered;
      exit 1)

(* Re-run the prediction purely from a journal's recorded evidence and
   check it reproduces the recorded report byte-for-byte.  Transfer-plan
   journals (from `feam depot plan --journal` or the evalharness) are
   dispatched to the plan replayer, agreement-corpus journals (from
   `feam agree run --journal`) to the corpus replayer. *)
let cmd_replay debug json file =
  setup_logs debug;
  let journal = parse_journal file in
  if Feam_agree.Replay.has_corpus journal then replay_agree json journal
  else if Feam_core.Replay.has_plan journal then replay_plan json journal
  else
  match Feam_core.Replay.of_journal journal with
  | Error e ->
    Fmt.epr "replay failed: %s@." e;
    exit 1
  | Ok outcome ->
    let open Feam_core.Replay in
    if json then
      print_endline
        (Json.render
           (Json.Obj
              [
                ("matches", Json.Bool outcome.matches);
                ("has_recorded_report", Json.Bool (outcome.recorded <> None));
                ("report", Feam_core.Report.to_json outcome.report);
              ]))
    else print_string outcome.rendered;
    (match outcome.recorded with
    | None ->
      Fmt.epr "replay: the journal records no report text to compare against@."
    | Some _ when outcome.matches ->
      Fmt.epr "replay: report matches the journal's recorded text byte-for-byte@."
    | Some recorded ->
      Fmt.epr "replay: MISMATCH between the replayed and recorded reports@.";
      Fmt.epr "--- recorded ---@.%s--- replayed ---@.%s" recorded
        outcome.rendered;
      exit 1)

(* Align two journals and pin what changed: evidence atoms, flipped
   determinants, the overall verdict.  Exits 1 when they differ, like
   diff(1). *)
let cmd_journal_diff debug json file_a file_b =
  setup_logs debug;
  let slurp file =
    if file = "-" then In_channel.input_all In_channel.stdin
    else In_channel.with_open_text file In_channel.input_all
  in
  match Feam_flightrec.Diff.of_strings ~a:(slurp file_a) ~b:(slurp file_b) with
  | Error e ->
    let file =
      match e.Feam_flightrec.Diff.je_side with `A -> file_a | `B -> file_b
    in
    Fmt.epr "diff: %s: %s@." file
      (Feam_flightrec.Diff.journal_error_to_string e);
    exit 2
  | Ok d ->
    if json then print_endline (Json.render (Feam_flightrec.Diff.to_json d))
    else print_string (Feam_flightrec.Diff.render_text d);
    if not (Feam_flightrec.Diff.is_empty d) then exit 1

(* -- Differential agreement: `feam agree` ------------------------------------- *)

let ensure_dir dir = if not (Sys.file_exists dir) then Sys.mkdir dir 0o755

(* Journal one reproducer's rerun into its own replayable journal. *)
let journal_reproducer file rp =
  Feam_flightrec.Recorder.with_journal ~tool:"feam" ~emit:(write_file file)
  @@ fun () ->
  let open Feam_agree in
  let run =
    Harness.rerun ~seed:rp.Minimize.rp_seed ~index:rp.Minimize.rp_index
      ~keep:rp.Minimize.rp_keep
  in
  Harness.record_report [ run ]

let write_minimized out_dir reproducers =
  let open Feam_agree in
  let dir = Filename.concat out_dir "minimized" in
  ensure_dir out_dir;
  ensure_dir dir;
  List.iter
    (fun rp ->
      let base = Filename.concat dir (Minimize.filename rp) in
      write_file base (Minimize.to_string rp);
      journal_reproducer
        (Filename.remove_extension base ^ ".journal")
        rp)
    reproducers

let agree_unsound_json runs =
  let open Feam_agree in
  Json.List
    (List.filter_map
       (fun r ->
         if r.Harness.r_unsound = [] then None
         else
           Some
             (Json.Obj
                [
                  ( "scenario",
                    Json.Str (Feam_evalharness.Scengen.id r.Harness.r_scenario)
                  );
                  ( "predictors",
                    Json.List
                      (List.map
                         (fun p -> Json.Str (Verdict.predictor_name p))
                         r.Harness.r_unsound) );
                  ( "failure",
                    match r.Harness.r_failure with
                    | Some f -> Json.Str (Verdict.failure_class f)
                    | None -> Json.Null );
                ]))
       runs)

let cmd_agree_run debug trace trace_out journal seed count json out minimize =
  setup_logs debug;
  let open Feam_agree in
  (* The corpus journal ends with its report: minimization's reruns
     stay out of it, and each reproducer records its own journal. *)
  let runs =
    with_obs ?journal trace trace_out @@ fun () ->
    let runs = Harness.run_corpus ~seed ~count () in
    Harness.record_report runs;
    runs
  in
  let report = Harness.render_report runs in
  let reproducers = if minimize then Minimize.shrink_all runs else [] in
  if json then
    print_endline
      (Json.render
         (Json.Obj
            [
              ("seed", Json.Int seed);
              ("scenarios", Json.Int (List.length runs));
              ( "disagreements",
                Json.Int
                  (List.length (List.filter Harness.disagrees runs)) );
              ("unsound", agree_unsound_json runs);
              ( "minimized",
                Json.List
                  (List.map
                     (fun rp -> Json.Str (Minimize.filename rp))
                     reproducers) );
            ]))
  else begin
    print_string report;
    List.iter
      (fun rp ->
        Fmt.pr "minimized %d/%d -> keep [%s]: %s unsound for %s (%s)@."
          rp.Minimize.rp_seed rp.Minimize.rp_index
          (String.concat " " (List.map string_of_int rp.Minimize.rp_keep))
          (Verdict.predictor_name rp.Minimize.rp_predictor)
          rp.Minimize.rp_failure
          (String.concat ", " rp.Minimize.rp_perturbations))
      reproducers
  end;
  (match out with
  | None -> ()
  | Some dir ->
    ensure_dir dir;
    write_file (Filename.concat dir "tables.txt") report;
    if minimize then write_minimized dir reproducers);
  Feam_obs.flush ()

let cmd_agree_minimize debug seed index out =
  setup_logs debug;
  let open Feam_agree in
  let run = Harness.run_one (Feam_evalharness.Scengen.build ~seed ~index ()) in
  if run.Harness.r_unsound = [] then begin
    Fmt.epr
      "scenario %d/%d has no unsound acceptance to minimize (oracle: %s)@."
      seed index
      (match run.Harness.r_failure with
      | Some f -> Verdict.failure_class f
      | None -> "success");
    exit 1
  end;
  List.iter
    (fun p ->
      match Minimize.shrink run p with
      | Error e ->
        Fmt.epr "minimize failed: %s@." e;
        exit 1
      | Ok (rp, probes) ->
        print_string (Minimize.to_string rp);
        Fmt.epr "minimized to %d of %d perturbations in %d probe runs@."
          (List.length rp.Minimize.rp_keep)
          (List.length run.Harness.r_scenario.Feam_evalharness.Scengen.sc_all)
          probes;
        (match out with
        | None -> ()
        | Some dir ->
          write_minimized dir [ rp ];
          Fmt.epr "wrote %s@."
            (Filename.concat (Filename.concat dir "minimized")
               (Minimize.filename rp))))
    run.Harness.r_unsound

let cmd_agree_report debug json file =
  setup_logs debug;
  let journal = parse_journal file in
  match Feam_flightrec.Journal.payload ~kind:"agree.report" journal with
  | Some (Json.Str report) ->
    if json then
      print_endline
        (Json.render
           (Json.Obj
              [
                ( "scenarios",
                  Json.Int
                    (List.length
                       (Feam_flightrec.Journal.find_all ~kind:"payload" journal
                       |> List.filter (fun r ->
                              Feam_flightrec.Journal.str_field "kind" r
                              = Some "agree.scenario"))) );
                ("report", Json.Str report);
              ]))
    else print_string report
  | Some _ | None ->
    Fmt.epr "%s: no agreement report recorded (run 'feam agree run --journal')@."
      file;
    exit 1

let cmd_bundle debug scenario_name site binary out =
  setup_logs debug;
  let scenario = load_scenario scenario_name in
  let site = require_site scenario site in
  let path, install =
    match binary with
    | Some p -> (p, None)
    | None ->
      let p, i = sample_binary scenario site in
      (p, i)
  in
  let env =
    match install with
    | Some i -> Modules_tool.load_stack (Site.base_env site) i
    | None -> Site.base_env site
  in
  match
    Feam_core.Phases.source_phase Feam_core.Config.default site env
      ~binary_path:path
  with
  | Error e ->
    Fmt.epr "source phase failed: %s@." e;
    exit 1
  | Ok bundle -> (
    let text = Feam_core.Bundle_io.render bundle in
    match out with
    | "-" -> print_string text
    | file ->
      Out_channel.with_open_text file (fun oc -> Out_channel.output_string oc text);
      Fmt.pr "bundle written to %s (%d copies, %d probes, %.1f MB of libraries)@."
        file
        (List.length bundle.Feam_core.Bundle.copies)
        (List.length bundle.Feam_core.Bundle.probes)
        (float_of_int (Feam_core.Bundle.library_bytes bundle) /. 1048576.0))

let cmd_inspect_bundle debug file =
  setup_logs debug;
  let bundle = load_bundle file in
  let d = bundle.Feam_core.Bundle.binary_description in
  Fmt.pr "bundle created at: %s@." bundle.Feam_core.Bundle.created_at;
  Fmt.pr "binary: %a@." Feam_core.Description.pp d;
  Fmt.pr "carries binary bytes: %b@."
    (Option.is_some bundle.Feam_core.Bundle.binary_image);
  Fmt.pr "library copies (%d):@."
    (List.length bundle.Feam_core.Bundle.copies);
  List.iter
    (fun c ->
      Fmt.pr "  %-28s from %s (%.1f MB)@." c.Feam_core.Bdc.copy_request
        c.Feam_core.Bdc.copy_origin_path
        (float_of_int c.Feam_core.Bdc.copy_declared_size /. 1048576.0))
    bundle.Feam_core.Bundle.copies;
  Fmt.pr "probes: %s@."
    (String.concat ", "
       (List.map
          (fun p -> p.Feam_core.Bundle.probe_name)
          bundle.Feam_core.Bundle.probes))

(* -- Content-addressed depot: `feam depot ...` -------------------------------- *)

(* Intern a self-contained bundle's payloads into the depot and write the
   manifest that references them by content key. *)
let cmd_depot_add debug depot_dir bundle_file out =
  setup_logs debug;
  let store = open_depot depot_dir in
  let bundle = load_bundle bundle_file in
  let before = Feam_depot.Store.object_count store in
  let manifest = Feam_core.Bundle_manifest.of_bundle store bundle in
  Feam_depot.Store.save_dir store depot_dir;
  write_text out (Feam_core.Bundle_io.render_manifest manifest);
  let added = Feam_depot.Store.object_count store - before in
  if out <> "-" then
    Fmt.pr
      "manifest written to %s (%d objects referenced, %d new; store now %d \
       objects, %.1f MB)@."
      out
      (List.length (Feam_core.Bundle_manifest.keys manifest))
      added
      (Feam_depot.Store.object_count store)
      (float_of_int (Feam_depot.Store.total_bytes store) /. 1048576.0)

let cmd_depot_ls debug depot_dir json =
  setup_logs debug;
  let store = open_depot depot_dir in
  if json then print_endline (Json.render (Feam_depot.Store.to_json store))
  else print_string (Feam_depot.Store.listing store)

(* Mark-and-sweep: keep objects reachable from the --keep manifests (and
   their recorded dependency keys), sweep the rest. *)
let cmd_depot_gc debug depot_dir keep json =
  setup_logs debug;
  let store = open_depot depot_dir in
  let roots =
    List.concat_map (fun f -> Feam_core.Bundle_manifest.keys (load_manifest f)) keep
  in
  let report = Feam_depot.Store.gc ~roots store in
  Feam_depot.Store.save_dir store depot_dir;
  let swept = report.Feam_depot.Store.swept in
  if json then
    print_endline
      (Json.render
         (Json.Obj
            [
              ( "swept",
                Json.List
                  (List.map
                     (fun k -> Json.Str (Chash.to_hex k))
                     swept) );
              ("kept", Json.Int report.Feam_depot.Store.kept);
              ("swept_bytes", Json.Int report.Feam_depot.Store.swept_bytes);
            ]))
  else
    Fmt.pr "gc: swept %d objects (%.1f MB), kept %d@." (List.length swept)
      (float_of_int report.Feam_depot.Store.swept_bytes /. 1048576.0)
      report.Feam_depot.Store.kept

(* Transfer plan for a manifest against a target site: everything the
   manifest wants minus what --have says the site already possesses. *)
let cmd_depot_plan debug journal depot_dir site manifest_file have json =
  setup_logs debug;
  with_obs ?journal None None @@ fun () ->
  let store = open_depot depot_dir in
  let manifest = load_manifest manifest_file in
  let missing =
    List.filter
      (fun k -> not (Feam_depot.Store.mem store k))
      (Feam_core.Bundle_manifest.keys manifest)
  in
  if missing <> [] then begin
    Fmt.epr "manifest references %d objects not in the depot (first: %s)@."
      (List.length missing)
      (Chash.to_hex (List.hd missing));
    exit 1
  end;
  let have_tbl = Hashtbl.create 16 in
  List.iter
    (fun h -> Hashtbl.replace have_tbl (String.lowercase_ascii h) ())
    have;
  let wants = Feam_core.Bundle_manifest.wants manifest in
  let plan =
    Feam_depot.Planner.compute ~site
      ~possessed:(fun k -> Hashtbl.mem have_tbl (Chash.to_hex k))
      wants
  in
  Feam_depot.Planner.journal ~wants plan;
  if json then print_endline (Json.render (Feam_depot.Planner.to_json plan))
  else print_string (Feam_depot.Planner.render plan);
  Feam_obs.flush ()

(* Resolve a manifest back to the self-contained legacy bundle format. *)
let cmd_depot_export debug depot_dir manifest_file out =
  setup_logs debug;
  let store = open_depot depot_dir in
  let manifest = load_manifest manifest_file in
  match Feam_core.Bundle_manifest.to_bundle store manifest with
  | Error e ->
    Fmt.epr "export failed: %s@." e;
    exit 1
  | Ok bundle ->
    write_text out (Feam_core.Bundle_io.render bundle);
    if out <> "-" then
      Fmt.pr "bundle written to %s (%d copies, %d probes, %.1f MB of libraries)@."
        out
        (List.length bundle.Feam_core.Bundle.copies)
        (List.length bundle.Feam_core.Bundle.probes)
        (float_of_int (Feam_core.Bundle.library_bytes bundle) /. 1048576.0)

let cmd_advise debug scenario_name from_site to_site =
  setup_logs debug;
  let scenario = load_scenario scenario_name in
  let home = require_site scenario from_site in
  let target =
    match to_site with
    | Some t -> find_site scenario t
    | None -> (
      match List.filter (fun s -> Site.name s <> Site.name home) scenario.sites with
      | t :: _ -> t
      | [] -> failwith "need --to site")
  in
  let home_path, home_install = sample_binary scenario home in
  let env =
    match home_install with
    | Some i -> Modules_tool.load_stack (Site.base_env home) i
    | None -> Site.base_env home
  in
  let config = Feam_core.Config.default in
  match Feam_core.Phases.source_phase config home env ~binary_path:home_path with
  | Error e ->
    Fmt.epr "source phase failed: %s@." e;
    exit 1
  | Ok bundle -> (
    match
      Feam_core.Phases.target_phase config target (Site.base_env target) ~bundle ()
    with
    | Error e ->
      Fmt.epr "target phase failed: %s@." e;
      exit 1
    | Ok report ->
      let source =
        Feam_toolchain.Compile.program ~language:Feam_mpi.Stack.Fortran
          "sample_app"
      in
      let advice =
        Feam_core.Advisor.advise target
          ~binary_prediction:(Feam_core.Report.prediction report)
          ~source:(Some source)
      in
      Fmt.pr "target: %s@." (Site.name target);
      Fmt.pr "recommendation: %s@."
        (Feam_core.Advisor.strategy_to_string advice.Feam_core.Advisor.strategy);
      Fmt.pr "rationale: %s@." advice.Feam_core.Advisor.rationale)

let cmd_rank debug scenario_name from_site =
  setup_logs debug;
  let scenario = load_scenario scenario_name in
  let home = require_site scenario from_site in
  let home_path, home_install = sample_binary scenario home in
  let env =
    match home_install with
    | Some i -> Modules_tool.load_stack (Site.base_env home) i
    | None -> Site.base_env home
  in
  let config = Feam_core.Config.default in
  match Feam_core.Phases.source_phase config home env ~binary_path:home_path with
  | Error e ->
    Fmt.epr "source phase failed: %s@." e;
    exit 1
  | Ok bundle ->
    let targets =
      List.filter (fun s -> Site.name s <> Site.name home) scenario.sites
    in
    let ranked = Feam_evalharness.Ranking.rank config bundle targets in
    Table.print (Feam_evalharness.Ranking.table ranked)

let cmd_scenario_template debug =
  setup_logs debug;
  print_string Feam_evalharness.Scenario.template

let cmd_config_check debug file =
  setup_logs debug;
  let body =
    if file = "-" then In_channel.input_all In_channel.stdin
    else In_channel.with_open_text file In_channel.input_all
  in
  match Feam_core.Config.of_file_body body with
  | Ok _ -> Fmt.pr "configuration OK@."
  | Error errors ->
    List.iter (fun e -> Fmt.epr "error: %s@." e) errors;
    exit 1

(* -- Cmdliner wiring ---------------------------------------------------------------- *)

let sites_cmd =
  Cmd.v (Cmd.info "sites" ~doc:"List the sites of a scenario")
    Term.(const cmd_sites $ debug_arg $ scenario_arg)

let describe_cmd =
  Cmd.v
    (Cmd.info "describe" ~doc:"Run the Binary Description Component on a binary")
    Term.(
      const cmd_describe $ debug_arg $ trace_arg $ trace_out_arg $ journal_arg
      $ scenario_arg $ site_arg $ binary_arg)

let discover_cmd =
  Cmd.v
    (Cmd.info "discover" ~doc:"Run the Environment Discovery Component on a site")
    Term.(
      const cmd_discover $ debug_arg $ trace_arg $ trace_out_arg $ journal_arg
      $ scenario_arg $ site_arg)

let from_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "from" ] ~docv:"SITE" ~doc:"Guaranteed execution site.")

let to_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "to" ] ~docv:"SITE" ~doc:"Target site.")

let basic_arg =
  Arg.(
    value & flag
    & info [ "basic" ]
        ~doc:"Basic prediction only: skip the source phase (no probes, no resolution).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let predict_lint_arg =
  Arg.(
    value & flag
    & info [ "lint" ]
        ~doc:"Run the static-analysis pass over the source-phase bundle and \
              attach its findings to the report.")

let predict_symbols_arg =
  Arg.(
    value & flag
    & info [ "symbols" ]
        ~doc:"Run the symbol-closure rules (symbol-unresolved, \
              symbol-interposed, soname-major-unsound) over the source-phase \
              bundle and attach their findings to the report.  Implied by \
              --lint, which runs the whole rule set.")

let predict_depot_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "depot" ] ~docv:"DIR"
        ~doc:"Stage library copies through a persistent content-addressed \
              depot at $(docv) (created if needed).  Objects already \
              interned are recognized across runs and surface in the \
              depot.hit metric; the store is saved back after the run.")

let predict_cmd =
  Cmd.v
    (Cmd.info "predict"
       ~doc:"Predict execution readiness of a binary at a target site")
    Term.(
      const cmd_predict $ debug_arg $ trace_arg $ trace_out_arg
      $ trace_alloc_arg $ journal_arg $ scenario_arg $ from_arg $ to_arg
      $ binary_arg $ basic_arg $ json_arg $ predict_lint_arg
      $ predict_symbols_arg $ predict_depot_arg)

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"Run the prediction pipeline and dump the metrics registry it \
             populated: counters and histograms from the BDC, EDC, probes, \
             the four prediction checks, and the resolution model.")
    Term.(
      const cmd_metrics $ debug_arg $ trace_arg $ trace_out_arg $ scenario_arg
      $ from_arg $ to_arg $ binary_arg $ basic_arg $ predict_lint_arg
      $ json_arg)

let lint_bundle_arg =
  Arg.(
    value
    & pos 0 (some string) None
    & info [] ~docv:"BUNDLE"
        ~doc:"Bundle artifact to lint ('-' for stdin).  When omitted, the \
              source phase runs in-process over --scenario/--site.")

let lint_target_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "target" ] ~docv:"SITE"
        ~doc:"Check the bundle against this scenario site's machine and C \
              library.")

let lint_target_glibc_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "target-glibc" ] ~docv:"VERSION"
        ~doc:"Check C-library version bindings against this glibc version \
              (alternative to --target).")

let lint_list_rules_arg =
  Arg.(
    value & flag
    & info [ "list-rules" ] ~doc:"List the registered rules and exit.")

let lint_explain_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "explain" ] ~docv:"RULE"
        ~doc:"Print the long-form description and fixit guidance for one \
              rule id and exit.  An unknown rule exits 2 naming the valid \
              set, matching the gate's contract.")

(* A plain string, not Arg.enum: the gate itself (Engine.gate) owns
   validation, so an unknown level exits 2 with a usage message after
   the findings are still reported, instead of cmdliner's exit 124
   before any analysis runs. *)
let lint_fail_on_arg =
  Arg.(
    value
    & opt string "warn"
    & info [ "fail-on" ] ~docv:"LEVEL"
        ~doc:"Exit-code gate: 'warn' (default; 2 on errors, 1 on warnings), \
              'error' (2 on errors only), or 'never' (report only).  \
              Anything else is rejected with exit 2.")

let lint_cmd =
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Run the static-analysis rules over a bundle: per-symbol glibc \
             bindings, soname conflicts, dependency-graph anomalies, loader \
             and RPATH hazards, bundle staleness.  Exits 0 clean / 1 \
             warnings / 2 errors.")
    Term.(
      const cmd_lint $ debug_arg $ trace_arg $ trace_out_arg $ scenario_arg
      $ site_arg $ binary_arg $ lint_bundle_arg $ lint_target_arg
      $ lint_target_glibc_arg $ json_arg $ lint_list_rules_arg
      $ lint_explain_arg $ lint_fail_on_arg)

let audit_seed_arg =
  Arg.(
    value
    & opt int Feam_evalharness.Params.default.Feam_evalharness.Params.seed
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Master seed for the simulated fleet.  The Table II matrix is \
              a pure function of the seed, so equal seeds yield \
              byte-identical audit reports.")

let audit_baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "baseline" ] ~docv:"FILE"
        ~doc:"Suppress findings recorded in this baseline file: suppressed \
              findings are reported as a count and never gate the exit \
              code, so CI only fails on new findings.")

let audit_write_baseline_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "write-baseline" ] ~docv:"FILE"
        ~doc:"Write every finding of this run (including currently \
              suppressed ones) to $(docv) as a fresh baseline.")

let audit_cmd =
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Run the fleet-tier static-analysis rules over the whole \
             simulated fleet: ABI skew of shared libraries across sites, \
             binaries with no ready migration target, sites whose C \
             library lags the fleet's demands, unreferenced depot objects, \
             and MPI-stack partitions.  Exits 0 clean / 1 warnings / 2 \
             errors, like lint.")
    Term.(
      const cmd_audit $ debug_arg $ trace_arg $ trace_out_arg
      $ audit_seed_arg $ json_arg $ lint_fail_on_arg $ audit_baseline_arg
      $ audit_write_baseline_arg)

let symcheck_bind_log_arg =
  Arg.(
    value & flag
    & info [ "bind-log" ]
        ~doc:"Print every successful symbol binding (importer, symbol, \
              provider, scope position), not just the failures.")

let symcheck_cmd =
  Cmd.v
    (Cmd.info "symcheck"
       ~doc:"Simulate ld.so's symbol binding over a bundle's staged closure: \
             unresolved strong/weak imports, per-symbol version-binding \
             failures, interposition — and every edge where the soname-major \
             heuristic accepts a closure the symbols refute.  Exits 0 clean \
             / 1 warnings / 2 errors, like lint.")
    Term.(
      const cmd_symcheck $ debug_arg $ trace_arg $ trace_out_arg $ journal_arg
      $ scenario_arg $ site_arg $ binary_arg $ lint_bundle_arg
      $ lint_target_arg $ lint_target_glibc_arg $ json_arg
      $ symcheck_bind_log_arg $ lint_fail_on_arg)

let config_file_arg =
  Arg.(
    value & pos 0 string "-"
    & info [] ~docv:"FILE" ~doc:"Configuration file ('-' for stdin).")

let config_check_cmd =
  Cmd.v (Cmd.info "config-check" ~doc:"Validate a FEAM configuration file")
    Term.(const cmd_config_check $ debug_arg $ config_file_arg)

let out_arg =
  Arg.(
    value & opt string "-"
    & info [ "out"; "o" ] ~docv:"FILE" ~doc:"Output file ('-' for stdout).")

let bundle_cmd =
  Cmd.v
    (Cmd.info "bundle" ~doc:"Run the source phase and write the bundle artifact")
    Term.(const cmd_bundle $ debug_arg $ scenario_arg $ site_arg $ binary_arg $ out_arg)

let bundle_file_arg =
  Arg.(
    value & pos 0 string "-"
    & info [] ~docv:"FILE" ~doc:"Bundle artifact ('-' for stdin).")

let inspect_bundle_cmd =
  Cmd.v
    (Cmd.info "inspect-bundle" ~doc:"Summarize a serialized bundle artifact")
    Term.(const cmd_inspect_bundle $ debug_arg $ bundle_file_arg)

let scenario_template_cmd =
  Cmd.v
    (Cmd.info "scenario-template" ~doc:"Print a commented scenario-file template")
    Term.(const cmd_scenario_template $ debug_arg)

let rank_cmd =
  Cmd.v
    (Cmd.info "rank" ~doc:"Rank the scenario's sites for a binary by readiness                            and time-to-first-result")
    Term.(const cmd_rank $ debug_arg $ scenario_arg $ from_arg)

let journal_file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"JOURNAL" ~doc:"Flight-recorder journal ('-' for stdin).")

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Re-run the prediction purely from a journal's recorded evidence \
             — no discovery, no probes, no staging — and verify it \
             reproduces the recorded report byte-for-byte.  Exits 1 on \
             mismatch.")
    Term.(const cmd_replay $ debug_arg $ json_arg $ journal_file_arg)

let journal_a_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"JOURNAL-A" ~doc:"First journal.")

let journal_b_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"JOURNAL-B" ~doc:"Second journal.")

let diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Align two journals by binary and determinant and pin what \
             changed between the runs: the evidence atoms that moved, the \
             determinants they flipped, and the overall verdict.  Exits 1 \
             when the journals differ, like diff(1).")
    Term.(
      const cmd_journal_diff $ debug_arg $ json_arg $ journal_a_arg
      $ journal_b_arg)

let advise_cmd =
  Cmd.v
    (Cmd.info "advise"
       ~doc:"Recommend binary migration vs recompilation for a target")
    Term.(const cmd_advise $ debug_arg $ scenario_arg $ from_arg $ to_arg)

let depot_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "depot" ] ~docv:"DIR"
        ~doc:"Depot directory (created if needed).")

let depot_bundle_file_arg =
  Arg.(
    value & pos 0 string "-"
    & info [] ~docv:"BUNDLE" ~doc:"Bundle artifact ('-' for stdin).")

let depot_manifest_file_arg =
  Arg.(
    value & pos 0 string "-"
    & info [] ~docv:"MANIFEST" ~doc:"Manifest artifact ('-' for stdin).")

let depot_keep_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "keep" ] ~docv:"MANIFEST"
        ~doc:"Manifest whose objects (and their recorded dependencies) are \
              GC roots.  Repeatable.  With no roots, gc sweeps everything.")

let depot_site_arg =
  Arg.(
    value & opt string "target"
    & info [ "site" ] ~docv:"NAME" ~doc:"Target site name the plan ships to.")

let depot_have_arg =
  Arg.(
    value
    & opt_all string []
    & info [ "have" ] ~docv:"KEY"
        ~doc:"Content key (hex) the target site already possesses; the plan \
              skips it.  Repeatable.")

let depot_add_cmd =
  Cmd.v
    (Cmd.info "add"
       ~doc:"Intern a self-contained bundle's payloads into the depot and \
             write the content-addressed manifest that references them.")
    Term.(
      const cmd_depot_add $ debug_arg $ depot_dir_arg $ depot_bundle_file_arg
      $ out_arg)

let depot_ls_cmd =
  Cmd.v
    (Cmd.info "ls"
       ~doc:"List the depot's objects: key, size, soname, provider.  \
             Key-ordered, so equal stores render byte-identically.")
    Term.(const cmd_depot_ls $ debug_arg $ depot_dir_arg $ json_arg)

let depot_gc_cmd =
  Cmd.v
    (Cmd.info "gc"
       ~doc:"Mark-and-sweep the depot: keep pinned objects and everything \
             reachable from --keep manifests, sweep the rest.")
    Term.(
      const cmd_depot_gc $ debug_arg $ depot_dir_arg $ depot_keep_arg
      $ json_arg)

let depot_plan_cmd =
  Cmd.v
    (Cmd.info "plan"
       ~doc:"Compute the transfer plan for a manifest against a target \
             site: the deduplicated objects to ship, minus what the site \
             already possesses (--have).  With --journal the plan is \
             recorded for byte-for-byte verification by 'feam replay'.")
    Term.(
      const cmd_depot_plan $ debug_arg $ journal_arg $ depot_dir_arg
      $ depot_site_arg $ depot_manifest_file_arg $ depot_have_arg $ json_arg)

let depot_export_cmd =
  Cmd.v
    (Cmd.info "export"
       ~doc:"Resolve a manifest against the depot back into the legacy \
             self-contained bundle format.")
    Term.(
      const cmd_depot_export $ debug_arg $ depot_dir_arg
      $ depot_manifest_file_arg $ out_arg)

let agree_seed_arg =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED"
        ~doc:"Corpus seed.  Every scenario is a pure function of (seed, \
              index), so equal seeds yield byte-identical corpora and \
              tables.")

let agree_count_arg =
  Arg.(
    value & opt int 100
    & info [ "count" ] ~docv:"N" ~doc:"Number of scenarios to generate.")

let agree_index_arg =
  Arg.(
    required
    & opt (some int) None
    & info [ "index" ] ~docv:"INDEX" ~doc:"Scenario index within the seed.")

let agree_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ; "o" ] ~docv:"DIR"
        ~doc:"Write the report to DIR/tables.txt and minimized reproducers \
              (with replayable journals) under DIR/minimized/.")

let agree_minimize_arg =
  Arg.(
    value & flag
    & info [ "minimize" ]
        ~doc:"Shrink every unsound disagreement to a minimal reproducer by \
              iteratively undoing perturbations.")

let agree_run_cmd =
  Cmd.v
    (Cmd.info "run"
       ~doc:"Generate a seeded scenario corpus and run all four verdict \
             sources — TEC determinants, lint rules, symcheck binding, and \
             the dynamic-linker oracle — over each scenario through one \
             shared description pass.  Prints precision/recall/overturn \
             and pairwise-agreement tables plus every unsound acceptance.")
    Term.(
      const cmd_agree_run $ debug_arg $ trace_arg $ trace_out_arg
      $ journal_arg $ agree_seed_arg $ agree_count_arg $ json_arg
      $ agree_out_arg $ agree_minimize_arg)

let agree_minimize_cmd =
  Cmd.v
    (Cmd.info "minimize"
       ~doc:"Shrink one scenario's unsound disagreement to a 1-minimal \
             reproducer: the smallest perturbation subset that still makes \
             a strictly-ready predictor miss the oracle's failure.")
    Term.(
      const cmd_agree_minimize $ debug_arg $ agree_seed_arg $ agree_index_arg
      $ agree_out_arg)

let agree_report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Print the agreement report a journal recorded ('feam replay' \
             re-runs the corpus instead and verifies byte-for-byte).")
    Term.(const cmd_agree_report $ debug_arg $ json_arg $ journal_file_arg)

let agree_cmd =
  Cmd.group
    (Cmd.info "agree"
       ~doc:"Differential predictor-agreement harness: a seeded scenario \
             corpus, four verdict sources normalized into one lattice, \
             soundness scoring against the ground-truth oracle, and \
             disagreement minimization.")
    [ agree_run_cmd; agree_minimize_cmd; agree_report_cmd ]

let depot_cmd =
  Cmd.group
    (Cmd.info "depot"
       ~doc:"Content-addressed library store: intern bundles, list and \
             garbage-collect objects, plan deduplicated transfers, export \
             legacy bundles.")
    [ depot_add_cmd; depot_ls_cmd; depot_gc_cmd; depot_plan_cmd;
      depot_export_cmd ]

(* -- Cost observatory: `feam stats` / `feam bench ...` ------------------------ *)

(* Run the prediction pipeline in-process (like `feam metrics`) and
   expose the registry it populated in a machine-readable exposition
   format.  Under the default fixed clock the output is
   byte-deterministic — two identical runs produce identical bytes,
   which the CI costs job checks with cmp.  Prof timers are enabled so
   labeled duration/allocation histograms surface alongside the
   pipeline's own counters. *)
let cmd_stats debug scenario_name from_site to_site binary basic_only lint
    format out =
  setup_logs debug;
  Feam_obs.Prof.set_enabled true;
  let result, _clock =
    run_predict_pipeline ~announce_source:false ~lint_fleet:true scenario_name
      from_site to_site binary basic_only lint
  in
  (match result with
  | Ok _ -> ()
  | Error e ->
    Fmt.epr "prediction failed: %s@." e;
    exit 1);
  Feam_obs.Cachestat.set_gauges ();
  let text =
    match format with
    | `Prom -> Feam_obs.Expo.render_prom ()
    | `Json -> Feam_obs.Expo.render_jsonl ()
    | `Text -> Feam_obs.Metrics.render_text ()
  in
  write_text out text

let stats_format_arg =
  Arg.(
    value
    & opt (enum [ ("prom", `Prom); ("json", `Json); ("text", `Text) ]) `Text
    & info [ "format" ] ~docv:"FORMAT"
        ~doc:"Output format: 'prom' (Prometheus text exposition), 'json' \
              (one JSON record per metric, JSONL), or 'text' (the metrics \
              table).")

let stats_out_arg =
  Arg.(
    value & opt string "-"
    & info [ "out"; "o" ] ~docv:"FILE"
        ~doc:"Write the snapshot to FILE instead of stdout.")

let stats_cmd =
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run the prediction pipeline and expose its metrics registry \
             in a machine-readable format: Prometheus text exposition or \
             a byte-deterministic JSONL snapshot — the surface a resident \
             serve daemon will mount.")
    Term.(
      const cmd_stats $ debug_arg $ scenario_arg $ from_arg $ to_arg
      $ binary_arg $ basic_arg $ predict_lint_arg $ stats_format_arg
      $ stats_out_arg)

(* The perf-regression sentinel over BENCH_history.jsonl (appended by
   the bench suite, one record per run, no timestamps). *)
let cmd_bench_report debug history window threshold =
  setup_logs debug;
  if not (Sys.file_exists history) then begin
    (* Absence is the first-run case, not an error: CI runs this before
       any history has accumulated. *)
    Fmt.pr "bench report: no runs recorded (%s missing)@." history;
    exit 0
  end;
  match Feam_obs.Benchtrend.parse_history (read_text history) with
  | Error e ->
    Fmt.epr "%s: %s@." history e;
    exit 2
  | Ok runs ->
    let outcome = Feam_obs.Benchtrend.evaluate ~window ~threshold runs in
    print_string (Feam_obs.Benchtrend.render outcome);
    Feam_obs.flush ();
    exit (Feam_obs.Benchtrend.exit_code outcome)

let cmd_bench_validate debug bench_file history_file =
  setup_logs debug;
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  (if not (Sys.file_exists bench_file) then
     problem "%s: missing" bench_file
   else
     match Json.parse (read_text bench_file) with
     | Error e -> problem "%s: %s" bench_file e
     | Ok json -> (
       match Feam_obs.Benchtrend.validate_bench_json json with
       | Ok n -> Fmt.pr "%s: ok (%d benches)@." bench_file n
       | Error errs ->
         List.iter (fun e -> problem "%s: %s" bench_file e) errs));
  (if not (Sys.file_exists history_file) then
     problem "%s: missing" history_file
   else
     match Feam_obs.Benchtrend.parse_history (read_text history_file) with
     | Error e -> problem "%s: %s" history_file e
     | Ok runs -> Fmt.pr "%s: ok (%d runs)@." history_file (List.length runs));
  match List.rev !problems with
  | [] -> ()
  | problems ->
    List.iter (fun p -> Fmt.epr "%s@." p) problems;
    exit 1

let bench_history_arg =
  Arg.(
    value & opt string "BENCH_history.jsonl"
    & info [ "history" ] ~docv:"FILE"
        ~doc:"The bench-history JSONL file (one record per bench run).")

let bench_file_arg =
  Arg.(
    value & opt string "BENCH_feam.json"
    & info [ "bench-file" ] ~docv:"FILE"
        ~doc:"The bench snapshot the bench suite wrote.")

let bench_window_arg =
  Arg.(
    value & opt int 5
    & info [ "window" ] ~docv:"N"
        ~doc:"Baseline: the geometric mean of up to N runs before the \
              latest.")

let bench_threshold_arg =
  Arg.(
    value & opt float 1.30
    & info [ "threshold" ] ~docv:"RATIO"
        ~doc:"Flag a bench as regressed when latest/baseline exceeds \
              RATIO.")

let bench_report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:"Compare the latest bench run against the rolling baseline and \
             exit 1 when any bench regressed past the threshold.")
    Term.(
      const cmd_bench_report $ debug_arg $ bench_history_arg
      $ bench_window_arg $ bench_threshold_arg)

let bench_validate_cmd =
  Cmd.v
    (Cmd.info "validate"
       ~doc:"Validate BENCH_feam.json and BENCH_history.jsonl against \
             their schemas; exit 1 listing every problem found.")
    Term.(
      const cmd_bench_validate $ debug_arg $ bench_file_arg
      $ bench_history_arg)

let bench_cmd =
  Cmd.group
    (Cmd.info "bench"
       ~doc:"The perf-regression sentinel: schema validation and \
             run-over-run trend reports for the bench suite's artifacts.")
    [ bench_report_cmd; bench_validate_cmd ]

(* -- Fleet drift observatory: `feam drift ...` -------------------------------- *)

(* Replay the seeded drift sequence and persist its artifacts — numbered
   epoch snapshots plus timeline.jsonl — to a store directory.  Defaults
   to the reduced two-site world so interactive runs stay quick; --full
   replays the whole Table II fleet like `evaltool --drift`. *)
let cmd_drift_snapshot debug seed epochs out full =
  setup_logs debug;
  let open Feam_evalharness in
  let result =
    if full then Driftrun.run ~progress:(Fmt.pr "  %s@.") ~seed ~epochs ()
    else
      Driftrun.run
        ~specs:(Driftrun.small_specs ())
        ~benchmarks:(Driftrun.small_benchmarks ())
        ~progress:(Fmt.pr "  %s@.") ~seed ~epochs ()
  in
  ensure_dir out;
  let store = Feam_drift.Epoch_store.open_ out in
  List.iter
    (fun s -> ignore (Feam_drift.Epoch_store.put store s))
    (Driftrun.snapshots result);
  let timeline = Driftrun.timeline result in
  write_file (Filename.concat out "timeline.jsonl")
    (Feam_drift.Timeline.render_history timeline);
  print_string (Feam_drift.Timeline.render_entries timeline);
  Fmt.pr "wrote %d epoch snapshots and timeline.jsonl to %s@."
    (List.length result.Driftrun.dr_epochs)
    out;
  match result.Driftrun.dr_crosscheck with
  | Ok () -> ()
  | Error e ->
    Fmt.epr "cross-check FAILED: %s@." e;
    exit 1

let epoch_a_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"EPOCH-A" ~doc:"Base epoch snapshot (epoch_NNNN.jsonl).")

let epoch_b_arg =
  Arg.(
    required
    & pos 1 (some string) None
    & info [] ~docv:"EPOCH-B" ~doc:"New epoch snapshot.")

let parse_epoch file =
  match Feam_drift.Snapshot.of_jsonl (read_text file) with
  | Ok s -> s
  | Error e ->
    Fmt.epr "drift: %s: %s@." file e;
    exit 2

(* Diff two stored epochs through the invalidation engine: the changed
   evidence atoms, the determinants they feed, the cells they
   invalidate, and the verdict flips actually recorded between the two
   snapshots. *)
let cmd_drift_diff debug json file_a file_b =
  setup_logs debug;
  let a = parse_epoch file_a in
  let b = parse_epoch file_b in
  let plan = Feam_drift.Invalidate.affected a b in
  let flips =
    Feam_drift.Invalidate.flips ~before:a.Feam_drift.Snapshot.cells
      ~after:b.Feam_drift.Snapshot.cells
  in
  if json then
    print_endline (Json.render (Feam_drift.Invalidate.to_json plan flips))
  else print_string (Feam_drift.Invalidate.render_text plan flips);
  if plan.Feam_drift.Invalidate.pl_changes <> [] then exit 1

let timeline_file_arg =
  Arg.(
    value & pos 0 string "timeline.jsonl"
    & info [] ~docv:"TIMELINE" ~doc:"Timeline history ('-' for stdin).")

let parse_timeline file =
  match Feam_drift.Timeline.parse_history (read_text file) with
  | Ok entries -> entries
  | Error e ->
    Fmt.epr "drift: %s: %s@." file e;
    exit 2

let cmd_drift_timeline debug json file =
  setup_logs debug;
  let entries = parse_timeline file in
  if json then
    print_endline
      (Json.render
         (Json.List (List.map Feam_drift.Timeline.entry_to_json entries)))
  else print_string (Feam_drift.Timeline.render_entries entries)

let drift_rules_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "rules" ] ~docv:"FILE"
        ~doc:"Alert rules, one per line: 'rate-drop <fraction> <severity>', \
              'regression <severity>', 'watch <binary-id> <severity>' \
              (severity: info, warn, error; '#' comments).  Defaults to \
              rate-drop 0.30 warn plus regression info.")

let cmd_drift_check debug json rules_file fail_on file =
  setup_logs debug;
  let entries = parse_timeline file in
  let rules =
    match rules_file with
    | None -> Feam_drift.Timeline.default_rules
    | Some f -> (
      match Feam_drift.Timeline.parse_rules (read_text f) with
      | Ok rules -> rules
      | Error e ->
        Fmt.epr "drift: %s: %s@." f e;
        exit 2)
  in
  let findings = Feam_drift.Timeline.check rules entries in
  if json then
    print_endline (Json.render (Feam_drift.Timeline.findings_to_json findings))
  else print_string (Feam_drift.Timeline.render_findings findings);
  match Feam_drift.Timeline.gate ~fail_on findings with
  | Ok code -> exit code
  | Error e ->
    Fmt.epr "drift check: %s@." e;
    exit 2

let drift_epochs_arg =
  Arg.(
    value & opt int 6
    & info [ "epochs" ] ~docv:"N"
        ~doc:"Perturbation epochs to replay after the baseline.")

let drift_out_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "out" ] ~docv:"DIR"
        ~doc:"Epoch store directory (created if needed): epoch_NNNN.jsonl \
              per epoch plus timeline.jsonl.")

let drift_full_arg =
  Arg.(
    value & flag
    & info [ "full" ]
        ~doc:"Replay the whole Table II fleet and NPB+SPEC corpus instead \
              of the reduced two-site world.")

let drift_snapshot_cmd =
  Cmd.v
    (Cmd.info "snapshot"
       ~doc:"Replay the seeded drift sequence — epoch snapshots, \
             diff-driven incremental re-evaluation, readiness timeline — \
             and persist epoch_NNNN.jsonl plus timeline.jsonl to --out.  \
             Byte-deterministic per (seed, epochs).  Exits 1 when the \
             incremental verdicts diverge from a full re-evaluation.")
    Term.(
      const cmd_drift_snapshot $ debug_arg $ agree_seed_arg $ drift_epochs_arg
      $ drift_out_arg $ drift_full_arg)

let drift_diff_cmd =
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Diff two epoch snapshots through the invalidation engine: \
             changed evidence atoms, the determinants they feed, the cells \
             they invalidate, and the recorded verdict flips.  Exits 1 when \
             the epochs differ, like diff(1).")
    Term.(
      const cmd_drift_diff $ debug_arg $ json_arg $ epoch_a_arg $ epoch_b_arg)

let drift_timeline_cmd =
  Cmd.v
    (Cmd.info "timeline"
       ~doc:"Render a timeline.jsonl history as the per-epoch readiness \
             table: ready cells, readiness rate, cells re-evaluated, and \
             verdict flips.")
    Term.(const cmd_drift_timeline $ debug_arg $ json_arg $ timeline_file_arg)

let drift_check_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:"Evaluate alert rules over a timeline history: readiness-rate \
             drops, ready -> not-ready regressions, watched binaries.  \
             Exit-code gated like 'feam lint' (--fail-on warn/error/never).")
    Term.(
      const cmd_drift_check $ debug_arg $ json_arg $ drift_rules_arg
      $ lint_fail_on_arg $ timeline_file_arg)

let drift_cmd =
  Cmd.group
    (Cmd.info "drift"
       ~doc:"Fleet drift observatory: epoch snapshots of fleet evidence, \
             diff-driven incremental re-evaluation of the migration matrix, \
             and an alerting readiness timeline.")
    [ drift_snapshot_cmd; drift_diff_cmd; drift_timeline_cmd; drift_check_cmd ]

(* ---- serve: the resident prediction service ---- *)

let cmd_serve debug trace trace_out journal seed full socket port =
  setup_logs debug;
  with_obs ?journal trace trace_out @@ fun () ->
  let open Feam_evalharness in
  let specs = if full then Sites.specs else Driftrun.small_specs () in
  let benchmarks =
    if full then Feam_suites.Npb.all @ Feam_suites.Specmpi.all
    else Driftrun.small_benchmarks ()
  in
  let engine =
    Feam_serve.Engine.create ~specs ~benchmarks ~clock:Feam_obs.Clock.wall
      ~seed ()
  in
  (* Status goes to stderr: in stdio mode stdout carries only the
     response lines, so transcripts stay byte-comparable. *)
  Fmt.epr "feam serve: resident fleet ready — %d cells at epoch 0@."
    (Feam_serve.Engine.resident_cells engine);
  let outcome =
    match (socket, port) with
    | Some path, _ ->
      Fmt.epr "feam serve: listening on unix socket %s@." path;
      Feam_serve.Daemon.run_unix_socket engine path
    | None, Some p ->
      Fmt.epr "feam serve: listening on 127.0.0.1:%d@." p;
      Feam_serve.Daemon.run_tcp engine p
    | None, None -> Feam_serve.Daemon.run_stdio engine
  in
  Fmt.epr "feam serve: drained after %d request%s (%d parse error%s)%s@."
    outcome.Feam_serve.Daemon.served
    (if outcome.Feam_serve.Daemon.served = 1 then "" else "s")
    outcome.Feam_serve.Daemon.parse_errors
    (if outcome.Feam_serve.Daemon.parse_errors = 1 then "" else "s")
    (if outcome.Feam_serve.Daemon.interrupted then " — interrupted" else "")

let serve_socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Serve a unix domain socket at PATH (one client at a time).")

let serve_port_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "port" ] ~docv:"N" ~doc:"Serve TCP on 127.0.0.1:N.")

let serve_full_arg =
  Arg.(
    value & flag
    & info [ "full" ]
        ~doc:"Keep the whole Table II fleet and NPB+SPEC corpus resident \
              instead of the reduced two-site world.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-running prediction daemon: the fleet's descriptions, \
             discoveries and TEC verdicts stay resident, and a \
             line-delimited JSON protocol answers predict / predict-batch \
             / register-site / register-binary / update-evidence / \
             snapshot / crosscheck / stats / shutdown.  Evidence updates \
             re-evaluate only the cells the shared determinant<-evidence \
             dependency map marks affected.  Responses are \
             byte-deterministic for a given store state; without --socket \
             or --port the daemon serves stdin/stdout.")
    Term.(
      const cmd_serve $ debug_arg $ trace_arg $ trace_out_arg $ journal_arg
      $ agree_seed_arg $ serve_full_arg $ serve_socket_arg $ serve_port_arg)

let main =
  Cmd.group
    (Cmd.info "feam" ~version:"1.0.0"
       ~doc:"Framework for Efficient Application Migration (simulated sites)")
    [ sites_cmd; describe_cmd; discover_cmd; predict_cmd; metrics_cmd;
      stats_cmd; bench_cmd; lint_cmd; audit_cmd; symcheck_cmd; agree_cmd;
      replay_cmd; diff_cmd; drift_cmd; serve_cmd; config_check_cmd;
      bundle_cmd; inspect_bundle_cmd; depot_cmd; advise_cmd; rank_cmd;
      scenario_template_cmd ]

let () = exit (Cmd.eval main)
