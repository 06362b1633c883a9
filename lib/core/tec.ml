(* Target Evaluation Component (paper §V.C): matches the BDC's binary
   description against the EDC's environment description, probes
   candidate MPI stacks, applies the resolution model, and produces the
   prediction with its execution plan.

   Evaluation order follows the paper: ISA and C-library determinants
   first (fail fast), then MPI stack probing, then shared libraries with
   resolution.

   The component is split into effectful evidence gathering (probing,
   ldd walks, staging) and a pure [decide] shared with `feam replay`:
   live evaluation records the outcome of every effect as evidence,
   journals it, and feeds it to [decide]; replay feeds [decide] the
   recorded evidence instead.  One code path producing the verdict is
   what makes a replayed report byte-for-byte identical. *)

open Feam_util
open Feam_sysmodel
module Recorder = Feam_flightrec.Recorder

let src = Logs.Src.create "feam.tec" ~doc:"FEAM target evaluation"

module Log = (val Logs.src_log src : Logs.LOG)

type input = {
  config : Config.t;
  description : Description.t;
  binary_path : string option; (* binary's location at the target, if present *)
  bundle : Bundle.t option;
  discovery : Discovery.t;
}

(* The outcome of every effect the MPI-stack determinant performs:
   which advertised stack passed probes, and why the others failed. *)
type stack_evidence = {
  se_functioning : string option;
  se_probe_failures : (string * string) list; (* slug, failure detail *)
}

(* The outcome of every effect the shared-library determinant performs:
   what the target is missing, what the resolution model staged from
   the bundle, and what stayed unresolved. *)
type libs_evidence = {
  le_missing : string list;
  le_staged : (string * string) list;     (* needed name -> staged path *)
  le_unresolved : (string * string) list; (* name, why resolution failed *)
}

(* Compiler family of the binary, from its .comment provenance: used to
   order candidate stacks so that matching runtimes are preferred. *)
let binary_compiler_family (d : Description.t) =
  match d.Description.provenance.Objdump_parse.compiler_banner with
  | None -> None
  | Some banner ->
    if String.starts_with ~prefix:"GCC:" banner then Some Feam_mpi.Compiler.Gnu
    else if String.starts_with ~prefix:"Intel" banner then
      Some Feam_mpi.Compiler.Intel
    else if String.starts_with ~prefix:"PGI" banner then Some Feam_mpi.Compiler.Pgi
    else None

let isa_determinant (d : Description.t) (disc : Discovery.t) =
  let compatible =
    match disc.Discovery.machine with
    | None -> false (* cannot vouch for an unknown architecture *)
    | Some site_machine ->
      Predict.isa_rule ~binary_machine:d.Description.machine ~site_machine
  in
  {
    Predict.isa_compatible = compatible;
    binary_machine = d.Description.machine;
    binary_class = d.Description.elf_class;
    site_machine = disc.Discovery.machine;
  }

let clib_determinant (d : Description.t) (disc : Discovery.t) =
  {
    Predict.clib_compatible =
      Predict.clib_rule ~required:d.Description.required_glibc
        ~available:disc.Discovery.glibc;
    required = d.Description.required_glibc;
    available = disc.Discovery.glibc;
  }

(* Candidate stacks: matching MPI implementation type only (§III.B),
   matching compiler family preferred. *)
let candidate_stacks (d : Description.t) (disc : Discovery.t) =
  match d.Description.mpi with
  | None -> []
  | Some ident ->
    let matching =
      disc.Discovery.stacks
      |> List.filter (fun s ->
             Feam_mpi.Impl.compatible ~binary:ident.Mpi_ident.impl
               ~site:s.Discovery.impl)
    in
    let family = binary_compiler_family d in
    let preferred, other =
      List.partition
        (fun s ->
          match (family, s.Discovery.compiler_family) with
          | Some f, Some sf -> Feam_mpi.Compiler.family_equal f sf
          | _ -> false)
        matching
    in
    preferred @ other

let requested_impl_of (d : Description.t) =
  Option.map (fun i -> i.Mpi_ident.impl) d.Description.mpi

(* -- the pure decision core ------------------------------------------------ *)

(* [decide] computes the prediction from the description, the discovery
   and the recorded outcomes of the effectful steps.  ISA and C-library
   determinants need no evidence (they are pure functions of their
   inputs); stack and library evidence is optional because evaluation
   may never have reached those determinants.  A journal that should
   carry evidence but does not (tampering, truncation) yields an
   explicit not-ready verdict rather than a crash. *)
let decide ~config ~(description : Description.t) ~(discovery : Discovery.t)
    ?stack ?libs () : Predict.t =
  let d = description and disc = discovery in
  let isa = isa_determinant d disc in
  let clib = clib_determinant d disc in
  if not (isa.Predict.isa_compatible && clib.Predict.clib_compatible) then
    (* Paper §V.C: only when ISA and C library are compatible do we
       proceed to the MPI stack and shared-library determinants. *)
    let reasons =
      (if isa.Predict.isa_compatible then []
       else
         [
           Printf.sprintf "incompatible ISA: binary is %s (%s)"
             (Feam_elf.Types.machine_uname isa.Predict.binary_machine)
             (match isa.Predict.site_machine with
             | Some m -> "site is " ^ Feam_elf.Types.machine_uname m
             | None -> "site architecture unknown");
         ])
      @
      if clib.Predict.clib_compatible then []
      else
        [
          Printf.sprintf "C library too old: binary requires %s, site has %s"
            (match clib.Predict.required with
            | Some v -> Version.to_string v
            | None -> "?")
            (match clib.Predict.available with
            | Some v -> Version.to_string v
            | None -> "unknown");
        ]
    in
    {
      Predict.verdict = Predict.Not_ready reasons;
      determinants = { Predict.isa; stack = None; clib; libs = None };
    }
  else
    let candidates = candidate_stacks d disc in
    let requested_impl = requested_impl_of d in
    match (requested_impl, stack) with
    | Some _, None ->
      {
        Predict.verdict =
          Predict.Not_ready
            [ "incomplete evidence: no MPI stack probe outcome recorded" ];
        determinants = { Predict.isa; stack = None; clib; libs = None };
      }
    | _ ->
      let se =
        Option.value stack
          ~default:{ se_functioning = None; se_probe_failures = [] }
      in
      let stack_check =
        {
          Predict.stack_compatible =
            (requested_impl = None || se.se_functioning <> None);
          requested_impl;
          candidates_found = List.map (fun c -> c.Discovery.slug) candidates;
          functioning = se.se_functioning;
          probe_failures = se.se_probe_failures;
        }
      in
      if not stack_check.Predict.stack_compatible then
        let reason =
          if candidates = [] then
            "no compatible MPI implementation available at the target site"
          else
            Printf.sprintf
              "no functioning compatible MPI stack (%d candidate(s) failed probes)"
              (List.length candidates)
        in
        {
          Predict.verdict = Predict.Not_ready [ reason ];
          determinants =
            { Predict.isa; stack = Some stack_check; clib; libs = None };
        }
      else (
        match libs with
        | None ->
          {
            Predict.verdict =
              Predict.Not_ready
                [
                  "incomplete evidence: no shared-library resolution outcome \
                   recorded";
                ];
            determinants =
              { Predict.isa; stack = Some stack_check; clib; libs = None };
          }
        | Some le ->
          let libs_check =
            {
              Predict.libs_compatible = le.le_unresolved = [];
              missing = le.le_missing;
              resolved_by_copies = List.map fst le.le_staged;
              unresolved = le.le_unresolved;
            }
          in
          let determinants =
            {
              Predict.isa;
              stack = Some stack_check;
              clib;
              libs = Some libs_check;
            }
          in
          if libs_check.Predict.libs_compatible then
            let launcher =
              match requested_impl with
              | Some impl -> Config.launcher config impl
              | None -> ""
            in
            let plan =
              {
                Predict.chosen_stack_slug = stack_check.Predict.functioning;
                module_loads = Option.to_list stack_check.Predict.functioning;
                ld_library_path_additions =
                  (if libs_check.Predict.resolved_by_copies = [] then []
                   else [ config.Config.staging_dir ]);
                staged_copies = le.le_staged;
                launcher;
              }
            in
            { Predict.verdict = Predict.Ready plan; determinants }
          else
            let reasons =
              libs_check.Predict.unresolved
              |> List.map (fun (name, why) ->
                     Printf.sprintf "missing shared library %s (%s)" name why)
            in
            { Predict.verdict = Predict.Not_ready reasons; determinants })

(* -- effectful evidence gathering ------------------------------------------ *)

(* Probe candidates in preference order; first functioning one wins. *)
let probe_candidates ?ctx input site env candidates =
  let rec try_candidates failures = function
    | [] -> (None, List.rev failures)
    | candidate :: rest -> (
      match Site.find_stack_install site ~slug:candidate.Discovery.slug with
      | None ->
        try_candidates
          ((candidate.Discovery.slug, "advertised but not found on disk") :: failures)
          rest
      | Some install -> (
        match
          Probe.test_stack ?ctx input.config site env install
            ~bundle:input.bundle
            ~target_glibc:input.discovery.Discovery.glibc
        with
        | Ok () ->
          Log.debug (fun m -> m "stack %s passed probes" candidate.Discovery.slug);
          (Some (candidate, install), List.rev failures)
        | Error why ->
          Log.debug (fun m ->
              m "stack %s failed probes: %s" candidate.Discovery.slug why);
          try_candidates ((candidate.Discovery.slug, why) :: failures) rest))
  in
  try_candidates [] candidates

(* The mpi_stack determinant's effects, through the pass memo
   when the caller's context carries one.  The probes and the bundle
   copies they stage are scratch: the whole determinant runs in one
   scope of the target's file system, so it leaves the target as it
   found it and a memo hit has no files to redo.  The scope spans every
   candidate, because one candidate's staged copies can shadow the
   next's libraries (DESIGN §17). *)
let select_stack ?ctx input site env candidates =
  Vfs.scoped (Site.vfs site) @@ fun () ->
  match Option.bind ctx (fun c -> c.Eval_ctx.memo) with
  | None -> probe_candidates ?ctx input site env candidates
  | Some memo ->
    Pass_memo.find_or_probe memo ~config:input.config site env
      ~bundle:input.bundle ~target_glibc:input.discovery.Discovery.glibc
      ~candidates (fun () ->
        probe_candidates ?ctx input site env candidates)

(* Missing shared libraries under [env]: ldd on the binary when present,
   name-by-name search otherwise (the bundle-only case). *)
let missing_libraries ?ctx input site env =
  match input.binary_path with
  | Some path ->
    Edc.missing_libraries ?ctx site env ~binary_path:path
      ~needed:input.description.Description.needed
  | None ->
    input.description.Description.needed
    |> List.filter (fun name ->
           not (Resolve_model.present_at_target site env name))

(* -- journaling ------------------------------------------------------------ *)

let pass_fail b = if b then "pass" else "fail"

let opt_str = function None -> Json.Null | Some s -> Json.Str s

let journal_isa (isa : Predict.isa_check) =
  Recorder.decision ~determinant:"isa"
    ~verdict:(pass_fail isa.Predict.isa_compatible)
    (fun () ->
      [
        ( "binary_machine",
          Json.Str (Feam_elf.Types.machine_uname isa.Predict.binary_machine) );
        ( "binary_class",
          Json.Str (Fmt.str "%a" Feam_elf.Types.pp_class isa.Predict.binary_class)
        );
        ( "site_machine",
          opt_str
            (Option.map Feam_elf.Types.machine_uname isa.Predict.site_machine) );
      ])

let journal_clib (clib : Predict.clib_check) =
  Recorder.decision ~determinant:"glibc"
    ~verdict:(pass_fail clib.Predict.clib_compatible)
    (fun () ->
      [
        ("required", opt_str (Option.map Version.to_string clib.Predict.required));
        ( "available",
          opt_str (Option.map Version.to_string clib.Predict.available) );
      ])

let journal_stack ~requested_impl ~candidates se ~compatible =
  Recorder.decision ~determinant:"mpi_stack" ~verdict:(pass_fail compatible)
    (fun () ->
      [
        ("requested_impl", opt_str (Option.map Feam_mpi.Impl.slug requested_impl));
        ( "candidates",
          Json.List
            (List.map (fun c -> Json.Str c.Discovery.slug) candidates) );
        ("functioning", opt_str se.se_functioning);
        ( "probe_failures",
          Json.List
            (List.map
               (fun (slug, why) ->
                 Json.Obj [ ("stack", Json.Str slug); ("reason", Json.Str why) ])
               se.se_probe_failures) );
      ])

let journal_libs le ~compatible =
  Recorder.decision ~determinant:"shared_libraries"
    ~verdict:(pass_fail compatible)
    (fun () ->
      [
        ("missing", Json.List (List.map (fun m -> Json.Str m) le.le_missing));
        ( "staged",
          Json.List
            (List.map
               (fun (name, path) ->
                 Json.Obj [ ("library", Json.Str name); ("path", Json.Str path) ])
               le.le_staged) );
        ( "unresolved",
          Json.List
            (List.map
               (fun (name, why) ->
                 Json.Obj [ ("library", Json.Str name); ("reason", Json.Str why) ])
               le.le_unresolved) );
      ])

(* -- live evaluation ------------------------------------------------------- *)

let evaluate_inner ?depot ?ctx site env (input : input) : Predict.t =
  let d = input.description in
  let disc = input.discovery in
  let decide_now ?stack ?libs () =
    decide ~config:input.config ~description:d ~discovery:disc ?stack ?libs ()
  in
  (* [determinant] names follow the journal's decision records, so the
     cost ledger and the flight recorder agree on vocabulary. *)
  let check name determinant compatible f =
    Feam_obs.Ledger.with_determinant determinant @@ fun () ->
    Feam_obs.Trace.with_span name @@ fun () ->
    let r = f () in
    Feam_obs.Trace.set_attr "compatible" (Feam_obs.Span.Bool (compatible r));
    r
  in
  let isa =
    check "predict.check.isa" "isa"
      (fun c -> c.Predict.isa_compatible)
      (fun () ->
        let isa = isa_determinant d disc in
        journal_isa isa;
        isa)
  in
  let clib =
    check "predict.check.clib" "glibc"
      (fun c -> c.Predict.clib_compatible)
      (fun () ->
        let clib = clib_determinant d disc in
        journal_clib clib;
        clib)
  in
  if not (isa.Predict.isa_compatible && clib.Predict.clib_compatible) then
    decide_now ()
  else
    (* MPI stack determinant. *)
    let selection, stack_ev =
      Feam_obs.Ledger.with_determinant "mpi_stack" @@ fun () ->
      Feam_obs.Trace.with_span "predict.check.stack" @@ fun () ->
      let candidates = candidate_stacks d disc in
      let requested_impl = requested_impl_of d in
      let selection, probe_failures =
        if requested_impl = None then (None, [])
        else select_stack ?ctx input site env candidates
      in
      let stack_ev =
        {
          se_functioning = Option.map (fun (c, _) -> c.Discovery.slug) selection;
          se_probe_failures = probe_failures;
        }
      in
      let compatible = requested_impl = None || selection <> None in
      journal_stack ~requested_impl ~candidates stack_ev ~compatible;
      Feam_obs.Trace.set_attr "compatible" (Feam_obs.Span.Bool compatible);
      Feam_obs.Trace.set_attr "candidates"
        (Feam_obs.Span.Int (List.length candidates));
      (selection, stack_ev)
    in
    if not (requested_impl_of d = None || stack_ev.se_functioning <> None) then
      decide_now ~stack:stack_ev ()
    else
      (* Shared-library determinant, under the chosen stack's session. *)
      let libs_ev =
        Feam_obs.Ledger.with_determinant "shared_libraries" @@ fun () ->
        Feam_obs.Trace.with_span "predict.check.libs" @@ fun () ->
        let session_env =
          match selection with
          | Some (_, install) -> Modules_tool.load_stack env install
          | None -> env
        in
        let missing = missing_libraries ?ctx input site session_env in
        if missing <> [] then
          Log.info (fun m ->
              m "missing shared libraries: %s" (String.concat ", " missing));
        let resolution =
          match (missing, input.bundle) with
          | [], _ -> None
          | _ :: _, Some bundle ->
            Some
              (Resolve_model.resolve ?depot input.config site session_env
                 ~bundle
                 ~target_glibc:disc.Discovery.glibc
                 ~binary_machine:d.Description.machine
                 ~binary_class:d.Description.elf_class ~missing)
          | _ :: _, None -> None
        in
        let staged, unresolved =
          match resolution with
          | None ->
            ( [],
              List.map (fun m -> (m, "no source-phase bundle available")) missing
            )
          | Some r ->
            ( r.Resolve_model.staged,
              List.map
                (fun (name, rej) -> (name, Resolve_model.rejection_to_string rej))
                r.Resolve_model.failed )
        in
        let libs_ev =
          { le_missing = missing; le_staged = staged; le_unresolved = unresolved }
        in
        journal_libs libs_ev ~compatible:(unresolved = []);
        Feam_obs.Trace.set_attr "compatible"
          (Feam_obs.Span.Bool (unresolved = []));
        Feam_obs.Trace.set_attr "missing"
          (Feam_obs.Span.Int (List.length missing));
        libs_ev
      in
      decide_now ~stack:stack_ev ~libs:libs_ev ()

let evaluate ?depot ?ctx site env (input : input) : Predict.t =
  Feam_obs.Ledger.with_stage "tec.evaluate" @@ fun () ->
  Feam_obs.Trace.with_span "tec.evaluate"
    ~attrs:
      [ ("binary", Feam_obs.Span.Str input.description.Description.path) ]
  @@ fun () ->
  (* The inputs replay rebuilds the run from. *)
  Recorder.payload ~kind:"config" (fun () ->
      Json.Str (Config.to_file_body input.config));
  Recorder.payload ~kind:"description" (fun () ->
      Description.to_json input.description);
  Recorder.payload ~kind:"discovery" (fun () ->
      Discovery.to_json input.discovery);
  let t = evaluate_inner ?depot ?ctx site env input in
  let outcome = if Predict.is_ready t then "ready" else "not_ready" in
  Recorder.decision ~determinant:"predict"
    ~verdict:(if Predict.is_ready t then "ready" else "not ready")
    (fun () ->
      [
        ( "reasons",
          Json.List (List.map (fun r -> Json.Str r) (Predict.reasons t)) );
      ]);
  Feam_obs.Metrics.incr "predict.outcome" ~labels:[ ("result", outcome) ];
  Feam_obs.Trace.set_attr "verdict" (Feam_obs.Span.Str outcome);
  t
