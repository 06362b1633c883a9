(* Deterministic replay: re-run the TEC's decision core purely from a
   journal's recorded evidence — no BDC description, no EDC discovery,
   no probes, no staging.  Because live evaluation and replay share the
   single pure [Tec.decide], a faithful journal reproduces the original
   report byte-for-byte; the journal is thereby a regression oracle for
   every future change to the prediction model's inputs handling. *)

open Feam_util
module Journal = Feam_flightrec.Journal

type outcome = {
  report : Report.t; (* rebuilt from recorded evidence *)
  rendered : string; (* Report.render of the rebuilt report *)
  recorded : string option; (* the report text the journal recorded *)
  matches : bool; (* rendered = recorded, byte for byte *)
}

let ( let* ) = Result.bind

let payload_exn ~kind journal =
  match Journal.payload ~kind journal with
  | Some data -> Ok data
  | None -> Error (Printf.sprintf "journal carries no %s payload" kind)

let parse_config journal =
  let* data = payload_exn ~kind:"config" journal in
  match Json.to_string_opt data with
  | None -> Error "config payload is not a string"
  | Some body -> (
    match Config.of_file_body body with
    | Ok config -> Ok config
    | Error errs -> Error ("config payload: " ^ String.concat "; " errs))

(* Recorded outcome of the MPI-stack determinant, when the journal
   reached it. *)
let stack_evidence journal =
  match Journal.last_decision ~determinant:"mpi_stack" journal with
  | None -> None
  | Some r ->
    let ev = Option.value (Journal.field "evidence" r) ~default:(Json.Obj []) in
    Some
      {
        Tec.se_functioning = Json.str_field "functioning" ev;
        se_probe_failures =
          Json.pairs_field "probe_failures" ("stack", "reason") ev;
      }

(* Recorded outcome of the shared-library determinant. *)
let libs_evidence journal =
  match Journal.last_decision ~determinant:"shared_libraries" journal with
  | None -> None
  | Some r ->
    let ev = Option.value (Journal.field "evidence" r) ~default:(Json.Obj []) in
    Some
      {
        Tec.le_missing = Json.strings_field "missing" ev;
        le_staged = Json.pairs_field "staged" ("library", "path") ev;
        le_unresolved = Json.pairs_field "unresolved" ("library", "reason") ev;
      }

let finding_of_json json =
  match (Json.str_field "rule" json, Json.str_field "subject" json) with
  | Some rule_id, Some subject ->
    Some
      {
        Diagnose.rule_id;
        level =
          Option.value
            (Option.bind (Json.str_field "level" json) Diagnose.level_of_string)
            ~default:Diagnose.Info;
        subject;
        message = Option.value (Json.str_field "message" json) ~default:"";
        fixit = Json.str_field "fixit" json;
      }
  | _ -> None

(* [of_journal journal] rebuilds the run's report from recorded
   evidence and compares it against the report text the journal itself
   recorded. *)
let of_journal journal =
  let* config = parse_config journal in
  let* description =
    let* data = payload_exn ~kind:"description" journal in
    Description.of_json data
  in
  let* discovery =
    let* data = payload_exn ~kind:"discovery" journal in
    Discovery.of_json data
  in
  let report_record = Journal.last ~kind:"report" journal in
  let site_name =
    let from_run =
      Option.bind (Journal.last ~kind:"run" journal) (Journal.str_field "site")
    in
    let from_report = Option.bind report_record (Journal.str_field "site") in
    match (from_run, from_report) with
    | Some s, _ | None, Some s -> Some s
    | None, None -> None
  in
  match site_name with
  | None -> Error "journal carries neither a run nor a report record"
  | Some site_name ->
    let binary =
      match Option.bind report_record (Journal.str_field "binary") with
      | Some b -> b
      | None -> description.Description.path
    in
    let findings =
      match report_record with
      | None -> []
      | Some r -> (
        match Journal.field "findings" r with
        | Some (Json.List items) -> List.filter_map finding_of_json items
        | _ -> [])
    in
    let prediction =
      Tec.decide ~config ~description ~discovery
        ?stack:(stack_evidence journal) ?libs:(libs_evidence journal) ()
    in
    let report =
      Report.with_findings
        (Report.make ~site_name ~binary prediction)
        findings
    in
    let rendered = Report.render report in
    let recorded =
      Option.bind report_record (Journal.str_field "text")
    in
    Ok { report; rendered; recorded; matches = recorded = Some rendered }

(* -- transfer-plan replay -------------------------------------------------- *)

(* Plans replay the same way predictions do: the journal records every
   deduplicated want (with its possession verdict at planning time) plus
   the rendered plan; replay re-runs the pure [Planner.compute] over the
   recorded wants and compares renderings byte-for-byte. *)

module Planner = Feam_depot.Planner

type plan_outcome = {
  plan : Planner.t; (* rebuilt from recorded wants *)
  plan_rendered : string;
  plan_recorded : string option; (* the text the journal recorded *)
  plan_matches : bool;
}

let has_plan journal = Journal.payload ~kind:"transfer_plan" journal <> None

let want_records journal =
  Journal.find_all ~kind:"evidence" journal
  |> List.filter (fun r ->
         Journal.str_field "stage" r = Some "depot"
         && Journal.str_field "kind" r = Some "want")

(* [plan_of_journal journal] — rebuild the journaled transfer plan. *)
let plan_of_journal journal =
  let* data = payload_exn ~kind:"transfer_plan" journal in
  let* site =
    match Json.str_field "site" data with
    | Some s -> Ok s
    | None -> Error "transfer_plan payload carries no site"
  in
  let recorded =
    List.map
      (fun r -> Planner.want_of_fields r.Journal.fields)
      (want_records journal)
  in
  if List.mem None recorded then
    Error "journal carries a malformed depot want record"
  else
    let recorded = List.filter_map Fun.id recorded in
    let possessed_keys : (string, unit) Hashtbl.t = Hashtbl.create 16 in
    List.iter
      (fun (w, possessed) ->
        if possessed then
          Hashtbl.replace possessed_keys
            (Chash.to_hex w.Planner.w_key)
            ())
      recorded;
    let wants = List.map fst recorded in
    let plan =
      Planner.compute ~site
        ~possessed:(fun key ->
          Hashtbl.mem possessed_keys (Chash.to_hex key))
        wants
    in
    let plan_rendered = Planner.render plan in
    let plan_recorded = Json.str_field "text" data in
    Ok
      {
        plan;
        plan_rendered;
        plan_recorded;
        plan_matches = plan_recorded = Some plan_rendered;
      }
