(* Runs a rule set over a context and renders the results. *)

open Feam_core

let run ?rules ctx =
  Feam_obs.Trace.with_span "lint.run" @@ fun () ->
  let rules = match rules with Some r -> r | None -> Registry.cell_rules () in
  rules
  |> List.concat_map (fun r ->
         Feam_obs.Trace.with_span "lint.rule"
           ~attrs:[ ("rule", Feam_obs.Span.Str r.Rule.id) ]
         @@ fun () ->
         let findings =
           match r.Rule.check with
           | Rule.Cell check -> check ctx
           | Rule.Fleet _ -> []
         in
         if findings <> [] then
           Feam_obs.Metrics.incr
             ~by:(List.length findings)
             ~labels:[ ("rule", r.Rule.id) ]
             "lint.findings";
         Feam_obs.Trace.set_attr "findings"
           (Feam_obs.Span.Int (List.length findings));
         findings)
  |> List.stable_sort Diagnose.compare_finding

let run_fleet ?rules fleet =
  Feam_obs.Trace.with_span "audit.run" @@ fun () ->
  let rules = match rules with Some r -> r | None -> Registry.fleet_rules () in
  rules
  |> List.concat_map (fun r ->
         Feam_obs.Trace.with_span "audit.rule"
           ~attrs:[ ("rule", Feam_obs.Span.Str r.Rule.id) ]
         @@ fun () ->
         let findings =
           match r.Rule.check with
           | Rule.Fleet check -> check fleet
           | Rule.Cell _ -> []
         in
         if findings <> [] then
           Feam_obs.Metrics.incr
             ~by:(List.length findings)
             ~labels:[ ("rule", r.Rule.id) ]
             "audit.findings";
         Feam_obs.Trace.set_attr "findings"
           (Feam_obs.Span.Int (List.length findings));
         findings)
  |> List.stable_sort Diagnose.compare_finding

let count level findings =
  List.length
    (List.filter (fun (f : Diagnose.finding) -> f.Diagnose.level = level) findings)

let errors findings = count Diagnose.Error findings
let warnings findings = count Diagnose.Warn findings
let infos findings = count Diagnose.Info findings

let worst findings =
  List.fold_left
    (fun acc (f : Diagnose.finding) ->
      match acc with
      | None -> Some f.Diagnose.level
      | Some l ->
        if Diagnose.level_rank f.Diagnose.level < Diagnose.level_rank l then
          Some f.Diagnose.level
        else acc)
    None findings

let exit_code findings =
  match worst findings with
  | Some Diagnose.Error -> 2
  | Some Diagnose.Warn -> 1
  | Some Diagnose.Info | None -> 0

let fail_on_levels = [ "warn"; "error"; "never" ]

let gate ~fail_on findings =
  match fail_on with
  | "warn" -> Ok (exit_code findings)
  | "error" -> Ok (if exit_code findings = 2 then 2 else 0)
  | "never" -> Ok 0
  | other ->
    Error
      (Printf.sprintf "unknown --fail-on level %S (expected %s)" other
         (String.concat ", " fail_on_levels))

let plural n what = Printf.sprintf "%d %s%s" n what (if n = 1 then "" else "s")

let summary findings =
  Printf.sprintf "%s, %s, %d info"
    (plural (errors findings) "error")
    (plural (warnings findings) "warning")
    (infos findings)

let subject_line (ctx : Context.t) =
  let bundle = ctx.Context.bundle in
  let target =
    match ctx.Context.target with
    | Some { Context.target_name = Some n; _ } -> Printf.sprintf " -> %s" n
    | _ -> ""
  in
  Printf.sprintf "%s (bundled at %s, %d copies, %d probes)%s"
    bundle.Bundle.binary_description.Description.path bundle.Bundle.created_at
    (List.length bundle.Bundle.copies)
    (List.length bundle.Bundle.probes)
    target

let add_findings buf findings =
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun (f : Diagnose.finding) ->
      addf "%-5s %-21s %s: %s\n"
        (Diagnose.level_to_string f.Diagnose.level)
        f.Diagnose.rule_id f.Diagnose.subject f.Diagnose.message;
      match f.Diagnose.fixit with
      | Some fix -> addf "      fix: %s\n" fix
      | None -> ())
    findings

let render_text ctx findings =
  let buf = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "feam lint: %s\n" (subject_line ctx);
  add_findings buf findings;
  addf "%s\n" (summary findings);
  Buffer.contents buf

(* One-line fleet inventory, the audit report's subject line. *)
let fleet_line (fleet : Fleet.t) =
  Printf.sprintf
    "%d sites, %d binaries, %d library observations, %d cells, %d stored \
     objects"
    (List.length fleet.Fleet.sites)
    (List.length fleet.Fleet.binaries)
    (List.length fleet.Fleet.libraries)
    (List.length fleet.Fleet.cells)
    (List.length fleet.Fleet.store)

let render_fleet_text fleet findings =
  let buf = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "feam audit: %s\n" (fleet_line fleet);
  add_findings buf findings;
  addf "%s\n" (summary findings);
  Buffer.contents buf

let fleet_to_json (fleet : Fleet.t) findings =
  let open Feam_util.Json in
  Obj
    [
      ( "fleet",
        Obj
          [
            ( "sites",
              List
                (List.map
                   (fun (s : Fleet.site) -> Str s.Fleet.site_name)
                   fleet.Fleet.sites) );
            ("binaries", Int (List.length fleet.Fleet.binaries));
            ("libraries", Int (List.length fleet.Fleet.libraries));
            ("cells", Int (List.length fleet.Fleet.cells));
            ("store_objects", Int (List.length fleet.Fleet.store));
          ] );
      ("findings", List (List.map Report.finding_to_json findings));
      ( "summary",
        Obj
          [
            ("errors", Int (errors findings));
            ("warnings", Int (warnings findings));
            ("infos", Int (infos findings));
            ("exit_code", Int (exit_code findings));
          ] );
    ]

let to_json ctx findings =
  let open Feam_util.Json in
  let bundle = ctx.Context.bundle in
  let target_json =
    match ctx.Context.target with
    | None -> Null
    | Some t ->
      Obj
        [
          ( "site",
            match t.Context.target_name with Some n -> Str n | None -> Null );
          ( "machine",
            match t.Context.target_machine with
            | Some m -> Str (Feam_elf.Types.machine_uname m)
            | None -> Null );
          ( "glibc",
            match t.Context.target_glibc with
            | Some v -> Str (Feam_util.Version.to_string v)
            | None -> Null );
        ]
  in
  Obj
    [
      ("binary", Str bundle.Bundle.binary_description.Description.path);
      ("bundled_at", Str bundle.Bundle.created_at);
      ("target", target_json);
      ("findings", List (List.map Report.finding_to_json findings));
      ( "summary",
        Obj
          [
            ("errors", Int (errors findings));
            ("warnings", Int (warnings findings));
            ("infos", Int (infos findings));
            ("exit_code", Int (exit_code findings));
          ] );
    ]
