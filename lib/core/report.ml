(* The user-facing output of a target phase (paper §V.C): the prediction,
   the reasons when execution is deemed impossible, and — when the site
   is predicted ready — the matching configuration details plus a script
   that sets them up automatically on execution. *)

type t = {
  site_name : string;
  binary : string;
  prediction : Predict.t;
  setup_script : string option; (* present when predicted ready *)
  findings : Diagnose.finding list;
      (* static-analysis findings attached by the lint layer, severe first *)
}

let prediction t = t.prediction

let with_findings t findings =
  { t with findings = List.sort Diagnose.compare_finding findings }

let make_setup_script (plan : Predict.plan) ~binary =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "#!/bin/sh\n";
  Buffer.add_string buf "# Generated by FEAM: site configuration for predicted-ready execution\n";
  List.iter
    (fun m -> Buffer.add_string buf (Printf.sprintf "module load %s\n" m))
    plan.Predict.module_loads;
  List.iter
    (fun dir ->
      Buffer.add_string buf
        (Printf.sprintf "export LD_LIBRARY_PATH=%s:$LD_LIBRARY_PATH\n" dir))
    plan.Predict.ld_library_path_additions;
  (match plan.Predict.staged_copies with
  | [] -> ()
  | copies ->
    Buffer.add_string buf "# staged library copies:\n";
    List.iter
      (fun (name, path) ->
        Buffer.add_string buf (Printf.sprintf "#   %s -> %s\n" name path))
      copies);
  if plan.Predict.launcher <> "" then
    Buffer.add_string buf
      (Printf.sprintf "exec %s -n \"${NP:-4}\" %s \"$@\"\n" plan.Predict.launcher binary)
  else Buffer.add_string buf (Printf.sprintf "exec %s \"$@\"\n" binary);
  Buffer.contents buf

let make ?(findings = []) ~site_name ~binary (prediction : Predict.t) =
  let setup_script =
    match prediction.Predict.verdict with
    | Predict.Ready plan -> Some (make_setup_script plan ~binary)
    | Predict.Not_ready _ -> None
  in
  {
    site_name;
    binary;
    prediction;
    setup_script;
    findings = List.sort Diagnose.compare_finding findings;
  }

let finding_to_json (f : Diagnose.finding) =
  let open Feam_util.Json in
  Obj
    [
      ("rule", Str f.Diagnose.rule_id);
      ("level", Str (Diagnose.level_to_string f.Diagnose.level));
      ("subject", Str f.Diagnose.subject);
      ("message", Str f.Diagnose.message);
      ( "fixit",
        match f.Diagnose.fixit with Some s -> Str s | None -> Null );
    ]

(* Machine-readable form of the report, for tooling that consumes FEAM
   output (an extension beyond the paper's text reports). *)
let to_json t =
  let open Feam_util.Json in
  let opt_str = function Some s -> Str s | None -> Null in
  let opt_version = function
    | Some v -> Str (Feam_util.Version.to_string v)
    | None -> Null
  in
  let d = t.prediction.Predict.determinants in
  let verdict_json =
    match t.prediction.Predict.verdict with
    | Predict.Ready plan ->
      Obj
        [
          ("ready", Bool true);
          ("stack", opt_str plan.Predict.chosen_stack_slug);
          ("module_loads", List (List.map (fun m -> Str m) plan.Predict.module_loads));
          ( "ld_library_path_additions",
            List
              (List.map (fun m -> Str m) plan.Predict.ld_library_path_additions) );
          ( "staged_copies",
            List
              (List.map
                 (fun (name, path) ->
                   Obj [ ("library", Str name); ("path", Str path) ])
                 plan.Predict.staged_copies) );
          ("launcher", Str plan.Predict.launcher);
        ]
    | Predict.Not_ready reasons ->
      Obj
        [
          ("ready", Bool false);
          ("reasons", List (List.map (fun r -> Str r) reasons));
        ]
  in
  let determinants_json =
    Obj
      [
        ( "isa",
          Obj
            [
              ("compatible", Bool d.Predict.isa.Predict.isa_compatible);
              ( "binary",
                Str
                  (Feam_elf.Types.machine_uname
                     d.Predict.isa.Predict.binary_machine) );
              ( "site",
                opt_str
                  (Option.map Feam_elf.Types.machine_uname
                     d.Predict.isa.Predict.site_machine) );
            ] );
        ( "c_library",
          Obj
            [
              ("compatible", Bool d.Predict.clib.Predict.clib_compatible);
              ("required", opt_version d.Predict.clib.Predict.required);
              ("available", opt_version d.Predict.clib.Predict.available);
            ] );
        ( "mpi_stack",
          match d.Predict.stack with
          | None -> Null
          | Some sc ->
            Obj
              [
                ("compatible", Bool sc.Predict.stack_compatible);
                ("functioning", opt_str sc.Predict.functioning);
                ( "candidates",
                  List (List.map (fun c -> Str c) sc.Predict.candidates_found) );
              ] );
        ( "shared_libraries",
          match d.Predict.libs with
          | None -> Null
          | Some lc ->
            Obj
              [
                ("compatible", Bool lc.Predict.libs_compatible);
                ("missing", List (List.map (fun m -> Str m) lc.Predict.missing));
                ( "resolved",
                  List (List.map (fun m -> Str m) lc.Predict.resolved_by_copies)
                );
              ] );
      ]
  in
  Obj
    [
      ("site", Str t.site_name);
      ("binary", Str t.binary);
      ("prediction", verdict_json);
      ("determinants", determinants_json);
      ("lint", List (List.map finding_to_json t.findings));
      ("setup_script", opt_str t.setup_script);
    ]

let render t =
  let buf = Buffer.create 512 in
  let addf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  addf "FEAM target evaluation report\n";
  addf "  site:   %s\n" t.site_name;
  addf "  binary: %s\n" t.binary;
  (match t.prediction.Predict.verdict with
  | Predict.Ready plan ->
    addf "  prediction: READY for execution\n";
    (match plan.Predict.chosen_stack_slug with
    | Some slug -> addf "  MPI stack: %s\n" slug
    | None -> addf "  MPI stack: (serial binary)\n");
    if plan.Predict.staged_copies <> [] then
      addf "  resolved shared libraries: %s\n"
        (String.concat ", " (List.map fst plan.Predict.staged_copies))
  | Predict.Not_ready reasons ->
    addf "  prediction: NOT READY\n";
    List.iter (fun r -> addf "    - %s\n" r) reasons);
  addf "  determinants:\n    %s\n"
    (Fmt.str "%a" Predict.pp_determinant_summary t.prediction
    |> String.split_on_char '\n' |> String.concat "\n    ");
  if t.findings <> [] then begin
    addf "  static analysis findings:\n";
    List.iter
      (fun (f : Diagnose.finding) ->
        addf "    [%-5s] %s %s: %s\n"
          (Diagnose.level_to_string f.Diagnose.level)
          f.Diagnose.rule_id f.Diagnose.subject f.Diagnose.message;
        match f.Diagnose.fixit with
        | Some fix -> addf "            fix: %s\n" fix
        | None -> ())
      t.findings
  end;
  (match t.setup_script with
  | Some script ->
    addf "  setup script:\n";
    String.split_on_char '\n' script
    |> List.iter (fun l -> if l <> "" then addf "    | %s\n" l)
  | None ->
    (* not ready: append actionable remediation guidance *)
    String.split_on_char '\n' (Diagnose.render t.prediction)
    |> List.iter (fun l -> if l <> "" then addf "  %s\n" l));
  Buffer.contents buf

(* Journal the finished report: the recorded [text] is the byte-level
   target `feam replay` must reproduce, and the primitives let replay
   rebuild the report object (findings included) without re-running
   discovery.  Re-journaled when the analysis layer attaches findings;
   replay and diff read the last report record.  The text is rendered
   only while the recorder is on. *)
let journal t =
  Feam_flightrec.Recorder.record "report" ~fields:(fun () ->
      [
        ("site", Feam_util.Json.Str t.site_name);
        ("binary", Feam_util.Json.Str t.binary);
        ("ready", Feam_util.Json.Bool (Predict.is_ready t.prediction));
        ("findings", Feam_util.Json.List (List.map finding_to_json t.findings));
        ("text", Feam_util.Json.Str (render t));
      ])
